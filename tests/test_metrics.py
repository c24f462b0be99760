import copy
import dataclasses
import pickle
import random

import pytest

from agilesim import core, metrics, simulation
from agilesim.metrics import SprintRecord
from conftest import make_scenario


def record(
    assignee="s1",
    sprint=1,
    difficulty=5.0,
    estimated=3.0,
    actual=3.0,
    quality=8.0,
    **kw,
):
    return SprintRecord(
        task_id=kw.pop("task_id", "t"),
        assignee_id=assignee,
        sprint_index=sprint,
        difficulty=difficulty,
        priority=kw.pop("priority", 5.0),
        confidence=kw.pop("confidence", 7.0),
        estimated_days=estimated,
        actual_days=actual,
        quality=quality,
        collaborators=kw.pop("collaborators", 1),
        mood_begin=kw.pop("mood_begin", 3.0),
        mood_end=kw.pop("mood_end", 3.0),
        **kw,
    )


def synthetic_result(assigned: dict[str, float]) -> simulation.RunResult:
    agents = list(assigned)
    return simulation.RunResult(
        scenario="synthetic",
        allocator=core.Allocator.SMART,
        seed=0,
        horizon=1,
        agent_ids=agents,
        categories={a: "HCA" for a in agents},
        assigned_effort={a: [v] for a, v in assigned.items()},
        busy_effort={a: [0.0] for a in agents},
        pending_workload={a: [0.0] for a in agents},
        congestion=[0.0],
        arrivals=[0],
        completions=[0],
        utility=[0.0],
        global_utility=0.0,
        completed_count=0,
        high_quality_count=0,
        delay_count=0,
    )


class TestCompetence:
    def test_empty_history_is_half(self):
        assert metrics.competence([], "s1") == 0.5
        assert metrics.competence([record(assignee="other")], "s1") == 0.5

    def test_single_good_task(self):
        records = [record(difficulty=8.0, estimated=3, actual=3, quality=7)]
        assert metrics.competence(records, "s1") == pytest.approx(0.9, abs=1e-12)

    def test_good_plus_late_task(self):
        records = [
            record(difficulty=8.0, estimated=3, actual=3, quality=7),
            record(difficulty=4.0, estimated=3, actual=5, quality=8),
        ]
        assert metrics.competence(records, "s1") == pytest.approx(9 / 14, abs=1e-12)

    def test_low_quality_counts_against(self):
        records = [record(difficulty=6.0, quality=5.0)]  # quality 5 is not > 5
        assert metrics.competence(records, "s1") == pytest.approx(1 / 8)

    def test_monotonicity(self):
        rng = random.Random(3)
        for _ in range(100):
            records = [
                record(
                    difficulty=rng.uniform(0.5, 10),
                    estimated=rng.uniform(1, 5),
                    actual=rng.uniform(1, 6),
                    quality=rng.uniform(0, 10),
                    sprint=rng.randint(1, 4),
                )
                for _ in range(rng.randint(0, 10))
            ]
            base = metrics.competence(records, "s1")
            better = records + [
                record(difficulty=rng.uniform(0.5, 10), estimated=4, actual=2, quality=9)
            ]
            worse = records + [
                record(difficulty=rng.uniform(0.5, 10), estimated=2, actual=4, quality=9)
            ]
            assert metrics.competence(better, "s1") > base
            assert metrics.competence(worse, "s1") < base
            assert 0.0 < base < 1.0


class TestTechnicalProductivity:
    def test_single_sprint_sum(self):
        records = [
            record(sprint=1, difficulty=8.0),
            record(sprint=1, difficulty=5.0),
        ]
        assert metrics.technical_productivity(records, "s1") == pytest.approx(13.0)

    def test_mean_over_sprints(self):
        records = [
            record(sprint=1, difficulty=8.0),
            record(sprint=1, difficulty=5.0),
            record(sprint=2, difficulty=7.0),
        ]
        assert metrics.technical_productivity(records, "s1") == pytest.approx(10.0)

    def test_no_completions(self):
        assert metrics.technical_productivity([], "s1") == 0.0


class TestSprintRecord:
    def test_fields_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record().quality = 1.0

    def test_equality_and_hash_ignore_extras(self):
        plain = record()
        tagged = record(extras={"workload": 12.0})
        assert plain == tagged
        assert hash(plain) == hash(tagged)
        assert record(quality=2.0) != plain

    def test_pickle_and_copy_round_trip(self):
        original = record(assignee="s7", extras={"team_score": 25.0})
        for clone in (pickle.loads(pickle.dumps(original)), copy.copy(original)):
            assert clone == original
            assert clone.assignee_id == "s7"
            assert clone.extras == {"team_score": 25.0}


class TestCongestion:
    def test_examples(self):
        assert metrics.congestion([2, 3]) == 13
        assert metrics.congestion([0, 0, 0]) == 0
        assert metrics.congestion([5]) == 25

    def test_permutation_invariant(self):
        rng = random.Random(8)
        for _ in range(30):
            sizes = [rng.randint(0, 9) for _ in range(rng.randint(1, 12))]
            shuffled = sizes[:]
            rng.shuffle(shuffled)
            assert metrics.congestion(sizes) == metrics.congestion(shuffled)
            assert (metrics.congestion(sizes) == 0) == all(s == 0 for s in sizes)

    def test_negative_rejected(self):
        with pytest.raises(metrics.MetricsError):
            metrics.congestion([3, -1])


class TestAllocationProportion:
    def test_normalization(self):
        report = metrics.allocation_proportion(
            synthetic_result({"a1": 30.0, "a2": 10.0})
        )
        assert report.by_agent == pytest.approx({"a1": 0.75, "a2": 0.25})

    def test_single_agent(self):
        report = metrics.allocation_proportion(synthetic_result({"a1": 12.0}))
        assert report.by_agent == {"a1": 1.0}

    def test_equal_split(self):
        report = metrics.allocation_proportion(
            synthetic_result({f"a{i}": 4.0 for i in range(5)})
        )
        for share in report.by_agent.values():
            assert share == pytest.approx(0.2)

    def test_shares_sum_to_one(self):
        result = simulation.run(core.with_overrides(core.preset("S-I"), seed=6))
        report = metrics.allocation_proportion(result)
        assert sum(report.by_agent.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(report.by_category.values()) == pytest.approx(1.0, abs=1e-9)
        assert set(report.by_category) <= {"HCA", "MCA", "MIA", "HIA"}

    def test_zero_total_rejected(self):
        with pytest.raises(metrics.MetricsError, match="no allocations"):
            metrics.allocation_proportion(synthetic_result({"a1": 0.0}))


class TestDelayPercentage:
    def test_log_mode(self):
        records = [record(actual=2, estimated=3) for _ in range(8)]
        records += [record(actual=5, estimated=3) for _ in range(2)]
        assert metrics.delay_percentage(records) == pytest.approx(0.2)
        assert metrics.delay_percentage(records[:8]) == 0.0
        assert metrics.delay_percentage(records[8:]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(metrics.MetricsError):
            metrics.delay_percentage([])

    def test_sim_mode(self):
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=5,
            allocator=core.Allocator.AWR,
        )
        result = simulation.run(config)
        # nominal duration ceil(10 / 3) = 4 days and the task took 4
        assert metrics.delay_percentage(result) == 0.0

    def test_sim_mode_late(self):
        # Two tasks on one slow agent: the second waits and finishes late.
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 9, 2),),
            horizon_days=8,
            allocator=core.Allocator.AWR,
        )
        result = simulation.run(config)
        assert result.completed_count == 2
        assert metrics.delay_percentage(result) == pytest.approx(0.5)

    def test_sim_mode_no_completions(self):
        config = make_scenario(
            tasks=(("T1", 1, 1, 1, 0),), horizon_days=2
        )
        with pytest.raises(metrics.MetricsError):
            metrics.delay_percentage(simulation.run(config))


class TestPearson:
    def test_perfect_linear(self):
        assert metrics.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert metrics.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_zero_variance(self):
        with pytest.raises(metrics.MetricsError, match="zero variance"):
            metrics.pearson([1, 2, 3], [5, 5, 5])

    def test_length_mismatch(self):
        with pytest.raises(metrics.MetricsError, match="length"):
            metrics.pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(metrics.MetricsError):
            metrics.pearson([1], [2])

    def test_symmetry_scale_invariance_and_bounds(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(2, 30)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            try:
                r = metrics.pearson(x, y)
            except metrics.MetricsError:
                continue
            assert abs(r) <= 1.0
            assert metrics.pearson(y, x) == pytest.approx(r)
            a, b = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            scaled = [a * v + b for v in x]
            assert metrics.pearson(scaled, y) == pytest.approx(r)


LOG_HEADER = (
    "task_id,assignee_id,sprint_index,difficulty,priority,confidence,"
    "estimated_days,actual_days,quality,collaborators,mood_begin,mood_end"
)


def write_log(tmp_path, rows, header=LOG_HEADER):
    path = tmp_path / "log.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


class TestIngestLog:
    def test_happy_path(self, tmp_path):
        path = write_log(
            tmp_path,
            [
                "t1,s1,1,8,5,7,3,3,7,1,3,4",
                "t2,s1,1,4,5,7,3,5,8,2,3,2",
                "t3,s2,2,6,5,7,2,2,9,1,4,4",
            ],
        )
        records = metrics.ingest_log(path)
        assert len(records) == 3
        assert records[0].difficulty == 8.0
        assert records[1].collaborators == 2
        assert metrics.competence(records, "s1") == pytest.approx(9 / 14)

    def test_quality_out_of_range(self, tmp_path):
        path = write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,12,1,3,4"])
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert any("row 2" in e and "quality" in e for e in err.value.errors)

    def test_mood_scale_bottom_is_one(self, tmp_path):
        path = write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,0,4"])
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert any("mood_begin" in e for e in err.value.errors)

    def test_missing_column(self, tmp_path):
        header = LOG_HEADER.replace(",mood_end", "")
        path = write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3"], header=header)
        with pytest.raises(metrics.LogSchemaError, match="mood_end"):
            metrics.ingest_log(path)

    def test_unparseable_numeric(self, tmp_path):
        path = write_log(tmp_path, ["t1,s1,1,hard,5,7,3,3,7,1,3,4"])
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert any("difficulty" in e and "not numeric" in e for e in err.value.errors)

    def test_row_number_counts_blank_lines(self, tmp_path):
        path = write_log(tmp_path, ["", "t1,s1,1,8,5,7,3,3,11,1,3,4"])
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [
            f"invalid log file {path}: row 3: quality 11.0 outside [0, 10]"
        ]

    def test_all_errors_reported_with_rows(self, tmp_path):
        path = write_log(
            tmp_path,
            [
                "t1,s1,1,8,5,7,3,3,7,1,3,4",
                "t2,s1,1,11,5,7,3,3,7,0,3,4",
                "t3,s1,1,8,5,7,3,-1,7,1,3,4",
            ],
        )
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        joined = " ".join(err.value.errors)
        assert "row 3" in joined and "row 4" in joined

    @pytest.mark.parametrize(
        "column,value",
        [
            ("estimated_days", "nan"),
            ("estimated_days", "inf"),
            ("actual_days", "-inf"),
            ("sprint_index", "nan"),
            ("sprint_index", "inf"),
            ("collaborators", "nan"),
            ("quality", "nan"),
            ("workload", "inf"),
        ],
    )
    def test_non_finite_cell_rejected(self, column, value, tmp_path):
        header = LOG_HEADER + ",workload"
        cells = dict(zip(header.split(","), "t1,s1,1,8,5,7,3,3,7,1,3,4,12".split(",")))
        cells[column] = value
        path = write_log(tmp_path, [",".join(cells.values())], header=header)
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [
            f"invalid log file {path}: row 2: {column} must be finite"
        ]

    def test_log_without_records_rejected(self, tmp_path):
        path = write_log(tmp_path, [])
        with pytest.raises(metrics.LogSchemaError, match="no records"):
            metrics.ingest_log(path)

    def test_optional_passthrough_columns(self, tmp_path):
        header = LOG_HEADER + ",workload,final_score,team_score"
        path = write_log(
            tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3,4,12,88,25"], header=header
        )
        records = metrics.ingest_log(path)
        assert records[0].extras == {
            "workload": 12.0,
            "final_score": 88.0,
            "team_score": 25.0,
        }
