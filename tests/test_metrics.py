import copy
import csv
import dataclasses
import io
import math
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

    def test_sprints_summed_left_to_right(self):
        # Python 3.12+'s compensated sum() would give 1.0 / 10.
        records = [record(sprint=s, difficulty=0.1) for s in range(1, 11)]
        assert metrics.technical_productivity(records, "s1") == 0.09999999999999999


class TestSprintRecord:
    def test_fields_are_frozen(self):
        built = record()
        for name in SprintRecord.__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(built, name)

    def test_equality_and_hash_ignore_extras(self):
        plain = record()
        tagged = record(extras={"workload": 12.0})
        assert plain == tagged
        assert hash(plain) == hash(tagged)
        assert record(quality=2.0) != plain

    def test_pickle_and_copy_round_trip(self):
        tagged = record(assignee="s7", extras={"team_score": 25.0})
        plain = record(assignee="s7")  # extras left at its default
        for original in (tagged, plain):
            clones = (
                pickle.loads(pickle.dumps(original)),
                copy.copy(original),
                copy.deepcopy(original),
            )
            for clone in clones:
                assert clone == original
                assert repr(clone) == repr(original)
                assert clone.assignee_id == "s7"
                assert clone.extras == original.extras

    def test_positional_and_keyword_construction_agree(self):
        values = ("t9", "s2", 4, 6.5, 5.0, 7.0, 3.0, 2.5, 8.0, 2, 3.0, 4.0)
        names = [f.name for f in dataclasses.fields(SprintRecord)][:-1]
        by_position = SprintRecord(*values)
        by_keyword = SprintRecord(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert repr(by_position) == repr(by_keyword)
        extras = {"workload": 1.0}
        assert SprintRecord(*values, extras).extras is extras
        with pytest.raises(TypeError):
            SprintRecord(*values[:-1])
        with pytest.raises(TypeError):
            SprintRecord(*values, {}, "one too many")

    def test_default_extras_not_shared(self):
        first, second = record(), record()
        assert first.extras == {} and second.extras == {}
        assert first.extras is not second.extras
        first.extras["workload"] = 3.0
        assert second.extras == {}
        assert record().extras == {}

    def test_dataclass_helpers(self):
        fields = dataclasses.fields(SprintRecord)
        assert [f.name for f in fields] == [
            "task_id", "assignee_id", "sprint_index", "difficulty",
            "priority", "confidence", "estimated_days", "actual_days",
            "quality", "collaborators", "mood_begin", "mood_end", "extras",
        ]
        assert fields[-1].default_factory is dict
        assert [f.name for f in fields if not f.compare] == ["extras"]
        built = record(extras={"workload": 2.0})
        assert repr(built) == (
            "SprintRecord(task_id='t', assignee_id='s1', sprint_index=1, "
            "difficulty=5.0, priority=5.0, confidence=7.0, estimated_days=3.0, "
            "actual_days=3.0, quality=8.0, collaborators=1, mood_begin=3.0, "
            "mood_end=3.0, extras={'workload': 2.0})"
        )
        as_dict = dataclasses.asdict(built)
        assert as_dict == {
            "task_id": "t", "assignee_id": "s1", "sprint_index": 1,
            "difficulty": 5.0, "priority": 5.0, "confidence": 7.0,
            "estimated_days": 3.0, "actual_days": 3.0, "quality": 8.0,
            "collaborators": 1, "mood_begin": 3.0, "mood_end": 3.0,
            "extras": {"workload": 2.0},
        }
        assert as_dict["extras"] is not built.extras
        replaced = dataclasses.replace(built, quality=2.0)
        assert replaced == record(quality=2.0)
        assert replaced.extras is built.extras
        assert dataclasses.replace(built, extras={}).extras == {}


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
        report = metrics.allocation_proportion({"a1": 30.0, "a2": 10.0})
        assert report == pytest.approx({"a1": 0.75, "a2": 0.25})

    def test_single_agent(self):
        assert metrics.allocation_proportion({"a1": 12.0}) == {"a1": 1.0}

    def test_total_summed_left_to_right(self):
        # Python 3.12+'s compensated sum() would total 1.0, sharing 0.1.
        report = metrics.allocation_proportion({f"a{i}": 0.1 for i in range(10)})
        assert set(report.values()) == {0.10000000000000002}

    def test_equal_split(self):
        report = metrics.allocation_proportion({f"a{i}": 4.0 for i in range(5)})
        for share in report.values():
            assert share == pytest.approx(0.2)

    def test_shares_sum_to_one(self):
        result = simulation.run(core.with_overrides(core.preset("S-I"), seed=6))
        report = metrics.allocation_proportion(result.assigned_effort)
        assert sum(report.values()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_total_rejected(self):
        with pytest.raises(metrics.MetricsError, match="no allocations"):
            metrics.allocation_proportion({"a1": 0.0})


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

    def test_generator_reads_as_its_list(self):
        rng = random.Random(7)
        records = [
            record(actual=rng.randint(0, 6), estimated=rng.randint(0, 6))
            for _ in range(50)
        ]
        expected = metrics.delay_percentage(records)
        assert expected == sum(not r.on_time for r in records) / len(records)
        assert 0 < expected < 1
        assert metrics.delay_percentage(r for r in records) == expected
        with pytest.raises(metrics.MetricsError, match="no completions"):
            metrics.delay_percentage(r for r in ())

    def test_sim_mode(self):
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=5,
            allocator=core.Allocator.AWR,
        )
        result = simulation.run(config)
        # nominal duration ceil(10 / 3) = 4 days and the task took 4
        assert (result.completed_count, result.delay_count) == (1, 0)

    def test_sim_mode_late(self):
        # Two tasks on one slow agent: the second waits and finishes late.
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 9, 2),),
            horizon_days=8,
            allocator=core.Allocator.AWR,
        )
        result = simulation.run(config)
        assert (result.completed_count, result.delay_count) == (2, 1)


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

    def test_non_integer_collaborators_rejected(self, tmp_path):
        path = write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,7,2.7,3,4"])
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [
            f"invalid log file {path}: row 2: collaborators must be an integer"
        ]

    def test_duplicate_column_rejected(self, tmp_path):
        path = write_log(
            tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3,4,12"], header=LOG_HEADER + ",quality"
        )
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [
            f"invalid log file {path}: duplicate column: quality"
        ]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"")
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [
            f"invalid log file {path}: file is empty: no header row"
        ]

    @pytest.mark.parametrize(
        "header",
        ["\ufeff" + LOG_HEADER, '\ufeff"task_id"' + LOG_HEADER.removeprefix("task_id")],
    )
    def test_byte_order_mark_accepted(self, header, tmp_path):
        path = write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3,4"], header=header)
        (record,) = metrics.ingest_log(path)
        assert record.task_id == "t1"
        assert record.mood_end == 4.0

    def test_valid_rows_never_reread_cell_by_cell(self, tmp_path, monkeypatch):
        def reread(*args):
            raise AssertionError(f"re-read a valid row: {args}")

        monkeypatch.setattr(metrics, "_row_errors", reread)
        header = "notes,team_score," + LOG_HEADER
        path = write_log(
            tmp_path,
            [", ,t1,s1,1,8,5,7,3,3,7,1,3,4", "x, 25 ,t2,s2,2,0,10,7,0,0,10,4,1,5,extra"],
            header=header,
        )
        records = metrics.ingest_log(path)
        assert [r.extras for r in records] == [{}, {"team_score": 25.0}]


    def test_narrowed_range_reaches_the_fast_check(self, tmp_path, monkeypatch):
        """The fast check reads its bounds from ``_RANGES``: a quality
        inside the old [0, 10] but past a narrowed top is rejected."""
        monkeypatch.setitem(metrics._RANGES, "quality", (0.0, 9.0))
        path = write_log(
            tmp_path, ["t1,s1,1,8,5,7,3,3,9,1,3,4", "t2,s1,1,8,5,7,3,3,9.5,1,3,4"]
        )
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [
            f"invalid log file {path}: row 3: quality 9.5 outside [0, 9]"
        ]

    def test_short_row_reads_missing_optional_cell_as_empty(
        self, tmp_path, monkeypatch
    ):
        def reread(*args):
            raise AssertionError(f"re-read a valid row: {args}")

        monkeypatch.setattr(metrics, "_row_errors", reread)
        header = LOG_HEADER + ",team_score"
        short = metrics.ingest_log(
            write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3,4"], header=header)
        )
        padded = metrics.ingest_log(
            write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3,4,"], header=header)
        )
        assert short == padded
        assert repr(short) == repr(padded)
        assert [r.extras for r in short] == [{}]

    def test_short_row_missing_required_cell_is_worded(self, tmp_path):
        path = write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3"])
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [
            f"invalid log file {path}: row 2: mood_end is not numeric ('')"
        ]

    def test_blank_assignee_rejected(self, tmp_path):
        path = write_log(
            tmp_path,
            [
                "t1,s1,1,8,5,7,3,3,7,1,3,4",
                "t2,,1,8,5,7,3,3,7,1,3,4",
                "t3,  ,1,8,5,7,3,3,12,1,3,4",
                "t4, \t,1,x,5,7,3,3,7,1,3,4",
            ],
        )
        for read in (metrics.ingest_log, metrics.summarize_log):
            with pytest.raises(metrics.LogSchemaError) as err:
                read(path)
            assert err.value.errors == [
                f"invalid log file {path}: {problem}"
                for problem in (
                    "row 3: assignee_id is blank",
                    "row 4: assignee_id is blank",
                    "row 4: quality 12.0 outside [0, 10]",
                    "row 5: assignee_id is blank",
                    "row 5: difficulty is not numeric ('x')",
                )
            ]

    def test_problems_of_one_row_come_in_rule_order(self, tmp_path):
        path = write_log(tmp_path, ["t1,s1,1.5,8,5,7,3,-1,11,0.5,3,4"])
        for read in (metrics.ingest_log, metrics.summarize_log):
            with pytest.raises(metrics.LogSchemaError) as err:
                read(path)
            assert err.value.errors == [
                f"invalid log file {path}: row 2: {problem}"
                for problem in (
                    "quality 11.0 outside [0, 10]",
                    "actual_days must be >= 0",
                    "collaborators must be >= 1",
                    "sprint_index must be an integer",
                    "collaborators must be an integer",
                )
            ]

    def test_rejected_row_never_vanishes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "_row_errors", lambda *args: [])
        path = write_log(
            tmp_path, ["t1,s1,1,8,5,7,3,3,7,1,3,4", "t2,s1,1,8,5,7,3,3,12,1,3,4"]
        )
        with pytest.raises(metrics.LogSchemaError) as err:
            metrics.ingest_log(path)
        assert err.value.errors == [f"invalid log file {path}: row 3: rejected"]


def reference_read_log(handle):
    """The cell-by-cell parser that ``metrics._read_log`` replaced: each
    ``DictReader`` row has its assignee checked for a name and every
    numeric cell stripped, parsed and checked on its own, then the ranges
    checked over ``_RANGES``."""
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        raise metrics.LogSchemaError(["file is empty: no header row"])
    missing = [col for col in metrics._REQUIRED_COLUMNS if col not in reader.fieldnames]
    if missing:
        raise metrics.LogSchemaError([f"missing required column: {col}" for col in missing])
    optional = tuple(col for col in metrics._OPTIONAL_COLUMNS if col in reader.fieldnames)
    numeric = metrics._REQUIRED_COLUMNS[2:] + optional
    records = []
    errors = []
    for row in reader:
        row_no = reader.line_num
        blank = not (row.get("assignee_id") or "").strip()
        if blank:
            errors.append(f"row {row_no}: assignee_id is blank")
        parsed = {}
        row_bad = False
        for column in numeric:
            raw = (row.get(column) or "").strip()
            if not raw and column in optional:
                continue
            try:
                value = float(raw)
            except ValueError:
                errors.append(f"row {row_no}: {column} is not numeric ({raw!r})")
                row_bad = True
                continue
            if not math.isfinite(value):
                errors.append(f"row {row_no}: {column} must be finite")
                row_bad = True
            parsed[column] = value
        if row_bad:
            continue
        for column, (low, high) in metrics._RANGES.items():
            value = parsed[column]
            if not low <= value <= high:
                errors.append(
                    f"row {row_no}: {column} {value} outside [{low:g}, {high:g}]"
                )
                row_bad = True
        if parsed["actual_days"] < 0:
            errors.append(f"row {row_no}: actual_days must be >= 0")
            row_bad = True
        if parsed["estimated_days"] < 0:
            errors.append(f"row {row_no}: estimated_days must be >= 0")
            row_bad = True
        if parsed["collaborators"] < 1:
            errors.append(f"row {row_no}: collaborators must be >= 1")
            row_bad = True
        if parsed["sprint_index"] != int(parsed["sprint_index"]):
            errors.append(f"row {row_no}: sprint_index must be an integer")
            row_bad = True
        if row_bad or blank:
            continue
        records.append(
            SprintRecord(
                task_id=(row.get("task_id") or "").strip(),
                assignee_id=(row.get("assignee_id") or "").strip(),
                sprint_index=int(parsed["sprint_index"]),
                difficulty=parsed["difficulty"],
                priority=parsed["priority"],
                confidence=parsed["confidence"],
                estimated_days=parsed["estimated_days"],
                actual_days=parsed["actual_days"],
                quality=parsed["quality"],
                collaborators=int(parsed["collaborators"]),
                mood_begin=parsed["mood_begin"],
                mood_end=parsed["mood_end"],
                extras={c: parsed[c] for c in optional if c in parsed},
            )
        )
    if errors or not records:
        raise metrics.LogSchemaError(errors or ["no records"])
    return records


# Cells for the equivalence fuzz. Non-integer collaborators, a repeated
# known column and a byte-order mark are left out: those are the three
# places where ``_read_log`` deliberately differs from the reference.
# A blank assignee is rejected, so assignee_id draws no blank text.
TEXT_CELLS = ["t1", " dev-3 ", "a,b", "two\nlines", '"quoted"']
BLANK_CELLS = ["", "  "]
PAD = ["", "", "", " ", "\t", "\xa0"]


def valid_cell(rng, column):
    if column == "task_id":
        return rng.choice(TEXT_CELLS + BLANK_CELLS)
    if column == "assignee_id":
        return rng.choice(TEXT_CELLS)
    if column == "sprint_index":
        return rng.choice(["0", "3", "12", "2.0", "-1", "1e1"])
    if column == "collaborators":
        return rng.choice(["1", "2", "4", "3.0", "1e0"])
    if column in metrics._RANGES:
        low, high = metrics._RANGES[column]
        return repr(rng.choice([low, high, round(rng.uniform(low, high), 2)]))
    if column in ("estimated_days", "actual_days"):
        return rng.choice(["0", "-0.0", "3", repr(rng.uniform(0, 9)), "1e300"])
    if column in metrics._OPTIONAL_COLUMNS:
        return rng.choice(["", " ", "12", "-7.5", "88", "1e-300"])
    return rng.choice(TEXT_CELLS + BLANK_CELLS + ["nan", "1"])


def bad_cell(rng, column):
    choices = ["nan", "inf", "-inf", "NaN", "hard", "1e", "", " "]
    if column in metrics._RANGES:
        low, high = metrics._RANGES[column]
        choices += [
            repr(math.nextafter(low, -math.inf)),
            repr(math.nextafter(high, math.inf)),
            repr(high + 1),
        ]
    elif column in ("estimated_days", "actual_days"):
        choices += ["-1", "-5e-324"]
    elif column == "sprint_index":
        choices += ["1.5", "2.000001"]
    elif column == "collaborators":
        choices += ["0", "-3", "0.0"]
    return rng.choice(choices)


def fuzz_log(rng):
    """A log text mixing valid rows, blank lines, padded, empty and
    non-finite cells, values on and past each bound, short and long rows,
    optional and unknown columns in any order, and quoted cells."""
    header = list(metrics._REQUIRED_COLUMNS)
    header += rng.sample(metrics._OPTIONAL_COLUMNS, rng.randint(0, 3))
    header += rng.choice([[], ["notes"], ["notes", "sprint_name", "notes"]])
    rng.shuffle(header)
    dirty = rng.random() < 0.5
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=rng.choice(["\n", "\r\n"]))
    writer.writerow(header)
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.15:
            out.write("\n")
            continue
        cells = [valid_cell(rng, column) for column in header]
        for index, column in enumerate(header):
            if rng.random() < 0.1:
                cells[index] = rng.choice(PAD) + cells[index] + rng.choice(PAD)
            if dirty and rng.random() < 0.05:
                cells[index] = bad_cell(rng, column)
        if rng.random() < 0.15:
            del cells[rng.randrange(len(cells)) :]
        elif rng.random() < 0.15:
            cells += ["extra", "1,2"][: rng.randint(1, 2)]
        writer.writerow(cells)
    return out.getvalue()


class TestReadLogEquivalence:
    """``_read_log`` against the cell-by-cell ``reference_read_log``."""

    def test_same_records_or_same_errors(self, tmp_path, monkeypatch):
        rng = random.Random(29)
        seen = set()
        real_row_errors = metrics._row_errors

        def row_errors(row, row_no, numeric, optional):
            problems = real_row_errors(row, row_no, numeric, optional)
            assert problems, f"row {row_no} rejected but not worded"
            seen.add("re-read row")
            return problems

        monkeypatch.setattr(metrics, "_row_errors", row_errors)
        path = tmp_path / "log.csv"
        for case in range(300):
            path.write_text(fuzz_log(rng), encoding="utf-8", newline="")
            outcomes = []
            for parse in (metrics._read_log, reference_read_log):
                try:
                    outcomes.append((core.load_input(path, "log", parse), None))
                except metrics.LogSchemaError as exc:
                    outcomes.append((None, exc.errors))
            (got, got_errors), (want, want_errors) = outcomes
            assert got_errors == want_errors, case
            if want is None:
                seen.add("errors")
                continue
            seen.add("records")
            assert got == want, case
            # repr shows the extras, and tells -0.0 from 0.0
            assert repr(got) == repr(want), case
            assert [r.extras for r in got] == [r.extras for r in want], case
        assert seen == {"records", "errors", "re-read row"}

    def test_repeated_cells_parse_as_the_reference(self, tmp_path):
        """Hundreds of rows drawn from a small pool of cell texts, so that
        most numeric and assignee cells repeat one seen before: texts
        that parse to equal values (or fail) must each still read as the
        reference reads them."""
        numbers = ["0", "-0", "0.0", "-0.0", " 5", "5 ", "5", "1e1", "10", "+3", "3"]
        assignees = ["dev-1", " dev-1", "dev-1 ", "\tdev-2", "dev-2"]
        bad = ["nan", "x", "", "-1", "11"]
        header = list(metrics._REQUIRED_COLUMNS) + ["workload"]
        path = tmp_path / "log.csv"
        for seed, dirty in ((41, False), (42, True)):
            rng = random.Random(seed)
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for number in range(400):
                cells = [rng.choice(numbers) for _ in header]
                cells[0] = f"t{number}"
                cells[1] = rng.choice(assignees)
                for column in ("mood_begin", "mood_end"):
                    cells[header.index(column)] = rng.choice(["1", " 5", "5", "+3", "3"])
                cells[header.index("collaborators")] = rng.choice(["1", "+3", " 5", "1e1"])
                if dirty and rng.random() < 0.05:
                    cells[rng.randrange(2, len(header))] = rng.choice(bad)
                writer.writerow(cells)
            path.write_text(out.getvalue(), encoding="utf-8", newline="")
            outcomes = []
            for parse in (metrics._read_log, reference_read_log):
                try:
                    outcomes.append((core.load_input(path, "log", parse), None))
                except metrics.LogSchemaError as exc:
                    outcomes.append((None, exc.errors))
            (got, got_errors), (want, want_errors) = outcomes
            assert got_errors == want_errors
            if dirty:
                assert want is None and len(want_errors) > 1
                continue
            assert len(got) == 400
            assert got == want
            assert repr(got) == repr(want)
            assert [r.extras for r in got] == [r.extras for r in want]
            rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
            at = header.index("difficulty")
            signs = {
                (row[at], math.copysign(1.0, parsed.difficulty))
                for row, parsed in zip(rows, got)
                if float(row[at]) == 0.0
            }
            assert signs == {
                ("0", 1.0), ("0.0", 1.0), ("-0", -1.0), ("-0.0", -1.0)
            }

    def test_same_records_or_same_errors_in_small_chunks(self, tmp_path, monkeypatch):
        """At three rows a chunk, a log spans several chunks and a bad row
        often sits in a later one: its errors keep their file rows."""
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", 3)
        self.test_same_records_or_same_errors(tmp_path, monkeypatch)

    def test_repeated_cells_in_small_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", 3)
        self.test_repeated_cells_parse_as_the_reference(tmp_path)

    def test_command_path_has_the_same_errors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", 3)
        rng = random.Random(33)
        path = tmp_path / "log.csv"
        failed = 0
        for case in range(300):
            path.write_text(fuzz_log(rng), encoding="utf-8", newline="")
            errors = []
            for parse in (metrics._read_log, metrics._summarize_log):
                try:
                    core.load_input(path, "log", parse)
                    errors.append(None)
                except metrics.LogSchemaError as exc:
                    errors.append(exc.errors)
            assert errors[0] == errors[1], case
            failed += errors[0] is not None
        assert 0 < failed < 300

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    def test_error_in_a_later_chunk_names_its_file_row(
        self, bom, tmp_path, monkeypatch
    ):
        """Lines 2-8 are valid, line 9 is blank and line 10 has quality
        11: at three rows a chunk it is read in the third chunk. "11"
        is a valid estimated_days in lines 3 and 10, so only the quality
        cell may mark a row for re-reading. The header starts with
        quality, so the re-read must skip a byte-order mark as the first
        reading did."""
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", 3)
        header = "quality," + LOG_HEADER.replace(",quality", "")
        good = "7,t1,s1,1,8,5,7,3,3,1,3,4"
        rows = [good, "7,t2,s1,1,8,5,7,11,3,1,3,4", *[good] * 5, ""]
        rows.append("11,t9,s2,1,8,5,7,11,3,1,3,4")
        path = write_log(tmp_path, rows, header=bom + header)
        for read in (metrics.ingest_log, metrics.summarize_log):
            with pytest.raises(metrics.LogSchemaError) as err:
                read(path)
            assert err.value.errors == [
                f"invalid log file {path}: row 10: quality 11.0 outside [0, 10]"
            ]


def summary_log(rng):
    """A valid log text: interleaved agents whose names come padded or
    not, sprints written as 3 and 3.0, -0 cells, fractional
    difficulties, blank lines, short rows and the optional columns."""
    header = list(metrics._REQUIRED_COLUMNS)
    header += rng.sample(metrics._OPTIONAL_COLUMNS, rng.randint(0, 3))
    rng.shuffle(header)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for number in range(rng.randint(1, 40)):
        if rng.random() < 0.1:
            out.write("\n")
        agent = rng.choice(["a", "b", "c"])
        cells = {
            "task_id": f"t{number}",
            "assignee_id": rng.choice(["", " ", "\t"]) + agent + rng.choice(["", " "]),
            "sprint_index": rng.choice(["1", "3", "3.0", " 3", "-0", "7"]),
            "difficulty": rng.choice(
                ["-0", "0", "0.1", "0.2", "3.3", repr(rng.uniform(0, 10))]
            ),
            "priority": "5",
            "confidence": "-0",
            "estimated_days": rng.choice(["-0", "0", "2", "2.5", "3"]),
            "actual_days": rng.choice(["-0", "0", "2", "2.5", "3", "1e300"]),
            "quality": rng.choice(["-0", "5", "5.0", "5.01", "8", "10"]),
            "collaborators": rng.choice(["1", "2.0"]),
            "mood_begin": "3",
            "mood_end": "4",
        }
        for column in metrics._OPTIONAL_COLUMNS:
            cells[column] = rng.choice(["", " ", "-0", "12.5"])
        row = [cells[column] for column in header]
        if rng.random() < 0.2:
            # Drop trailing optional cells, so the row stays valid.
            while row and header[len(row) - 1] in metrics._OPTIONAL_COLUMNS:
                row.pop()
                if rng.random() < 0.5:
                    break
        writer.writerow(row)
    return out.getvalue()


class TestSummarizeLog:
    """``summarize_log``, the fold the ``ingest`` command reports, against
    ``delay_percentage``, ``competence`` and ``technical_productivity``
    over ``ingest_log``'s records, value for value."""

    @pytest.mark.parametrize("chunk_rows", [3, 8192])
    def test_equals_the_record_metrics(self, chunk_rows, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", chunk_rows)
        rng = random.Random(32)
        path = tmp_path / "log.csv"
        for case in range(200):
            path.write_text(summary_log(rng), encoding="utf-8", newline="")
            records = metrics.ingest_log(path)
            summary = metrics.summarize_log(path)
            agents = sorted({record.assignee_id for record in records})
            assert summary.records == len(records), case
            assert summary.late == sum(not record.on_time for record in records), case
            assert summary.delay == metrics.delay_percentage(records), case
            assert list(summary.competence) == agents, case
            assert list(summary.productivity) == agents, case
            for agent in agents:
                want = metrics.competence(records, agent)
                assert summary.competence[agent] == want, case
                assert repr(summary.competence[agent]) == repr(want), case
                want = metrics.technical_productivity(records, agent)
                assert summary.productivity[agent] == want, case
                assert repr(summary.productivity[agent]) == repr(want), case

    def test_sums_in_file_order(self, tmp_path):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 from the left and 0.6
        # from the right: the fold adds in file order, as the records do.
        rows = [
            f"t{i},a,1,{difficulty},5,7,3,3,8,1,3,4"
            for i, difficulty in enumerate(["0.1", "0.2", "0.3"])
        ]
        summary = metrics.summarize_log(write_log(tmp_path, rows))
        assert summary.productivity == {"a": 0.6000000000000001}
        assert summary.competence == {"a": 1.6000000000000001 / 2.6000000000000001}


def record_summary(records):
    """The ``LogSummary`` the record-based metrics give over ``records``."""
    agents = sorted({record.assignee_id for record in records})
    return metrics.LogSummary(
        len(records),
        sum(not record.on_time for record in records),
        {agent: metrics.competence(records, agent) for agent in agents},
        {agent: metrics.technical_productivity(records, agent) for agent in agents},
    )


SPLIT_HEADER = LOG_HEADER + ",workload"

# Lines the comma split must not read: each sends its chunk, and the rest
# of the log, to csv.reader.
ODD_KINDS = (
    "quoted", "quoted newline", "crlf", "cr", "nul", "blank", "short", "long"
)


def plain_line(rng, number, quality=None):
    """One valid row of ``SPLIT_HEADER`` with no quote, as a file line."""
    cells = [
        f"t{number}",
        f"dev-{rng.randrange(5)}",
        str(rng.randrange(1, 4)),
        rng.choice(["0.5", "3", "7.25", "10", "-0"]),
        "5",
        "7",
        str(rng.randint(0, 4)),
        str(rng.randint(0, 5)),
        quality or rng.choice(["2", "5", "8.5", " 9"]),
        str(rng.randint(1, 3)),
        "3",
        "4",
        rng.choice(["", "12", "-7.5"]),
    ]
    return ",".join(cells) + "\n"


def odd_line(rng, number, kind):
    """A row of ``SPLIT_HEADER`` written as a line of ``kind``."""
    cells = plain_line(rng, number).removesuffix("\n").split(",")
    end = "\n"
    if kind == "quoted":
        cells[1] = f'"{cells[1]}"'
    elif kind == "quoted newline":
        cells[0] = f'"{cells[0]}\nnote"'
    elif kind == "crlf":
        end = "\r\n"
    elif kind == "cr":
        end = "\r"
    elif kind == "nul":
        cells[0] += "\0"
    elif kind == "blank":
        cells = []
    elif kind == "short":
        cells.pop()  # the optional workload cell
    elif kind == "long":
        cells.append("extra")
    return ",".join(cells) + end


def split_path_log(rng, chunk_rows, kinds, dirty):
    """A log text of plain rows, at least two chunks long, with a line of
    each of ``kinds`` set in. A quoted newline opens on the last line of
    the second chunk, right after a plain chunk, and closes in the third;
    the others go anywhere. A dirty log has quality 12 in one row. Half
    the logs lack the final newline."""
    lines = [plain_line(rng, number) for number in range(2 * chunk_rows)]
    lines += [plain_line(rng, number) for number in range(rng.randint(0, 40))]
    for kind in kinds:
        at = rng.randrange(len(lines))
        if kind == "quoted newline":
            at = 2 * chunk_rows - 1
        lines[at] = odd_line(rng, at, kind)
    if dirty:
        at = rng.randrange(len(lines))
        lines[at] = plain_line(rng, at, quality="12")
    text = SPLIT_HEADER + "\n" + "".join(lines)
    return text.removesuffix("\n") if rng.random() < 0.5 else text


def read_outcomes(path):
    """``_read_log``, ``reference_read_log`` and ``_summarize_log`` of the
    log at ``path``, each as (result, None) or (None, errors)."""
    outcomes = []
    for parse in (metrics._read_log, reference_read_log, metrics._summarize_log):
        try:
            outcomes.append((core.load_input(path, "log", parse), None))
        except core.InputError as exc:
            outcomes.append((None, exc.errors))
    return outcomes


class TestSplitPath:
    """A chunk of plain lines is split on its commas; from the first other
    chunk on, the log goes through ``csv.reader``. Both must read every
    log as ``reference_read_log`` does."""

    @pytest.mark.parametrize("chunk_rows", [3, metrics._CHUNK_ROWS])
    def test_mixed_logs_read_as_the_reference(
        self, chunk_rows, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", chunk_rows)
        rng = random.Random(34)
        path = tmp_path / "log.csv"
        kinds = ("plain",) + ODD_KINDS
        cases = 10 * len(kinds) if chunk_rows == 3 else len(kinds)
        seen = set()
        for case in range(cases):
            kind = kinds[case % len(kinds)]
            mix = [] if kind == "plain" else [kind]
            if chunk_rows == 3 and rng.random() < 0.3:
                mix.append(rng.choice(ODD_KINDS))
            log = split_path_log(rng, chunk_rows, mix, dirty=case % 3 == 2)
            path.write_text(log, encoding="utf-8", newline="")
            outcomes = read_outcomes(path)
            (got, got_errors), (want, want_errors), (summary, summary_errors) = outcomes
            assert got_errors == want_errors == summary_errors, (case, mix)
            if want is None:
                seen.add("errors")
                continue
            seen.add("records")
            assert got == want, (case, mix)
            assert repr(got) == repr(want), (case, mix)
            assert [r.extras for r in got] == [r.extras for r in want], (case, mix)
            assert summary == record_summary(want), (case, mix)
        assert seen == {"records", "errors"}

    @pytest.mark.parametrize("chunk_rows", [3, metrics._CHUNK_ROWS])
    def test_lines_over_the_field_limit(self, chunk_rows, tmp_path, monkeypatch):
        """A line longer than the field size limit goes to csv.reader: it
        reads a line whose cells are all within the limit, and rejects a
        cell over it with csv's own message."""
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", chunk_rows)
        rng = random.Random(35)
        path = tmp_path / "log.csv"
        limit = csv.field_size_limit()
        try:
            csv.field_size_limit(64)
            for task, readable in (("t" * 50, True), ("t" * 65, False)):
                # The long line opens the second chunk, after a plain one.
                lines = [plain_line(rng, n) for n in range(2 * chunk_rows + 2)]
                line = lines[chunk_rows]
                lines[chunk_rows] = task + line[line.index(",") :]
                path.write_text(SPLIT_HEADER + "\n" + "".join(lines), encoding="utf-8")
                outcomes = read_outcomes(path)
                (got, got_errors), (want, want_errors), (summary, _) = outcomes
                assert got_errors == want_errors
                if readable:
                    assert len(got) == 2 * chunk_rows + 2
                    assert got[chunk_rows].task_id == task
                    assert got == want and repr(got) == repr(want)
                    assert summary == record_summary(want)
                else:
                    assert [errors for _, errors in outcomes] == [
                        [f"invalid log file {path}: field larger than field limit (64)"]
                    ] * 3
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("chunk_rows", [3, metrics._CHUNK_ROWS])
    def test_plain_crlf_and_quoted_copies_agree(
        self, chunk_rows, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", chunk_rows)
        rng = random.Random(36)
        lines = [plain_line(rng, number) for number in range(3 * chunk_rows + 1)]
        plain = SPLIT_HEADER + "\n" + "".join(lines)
        # The assignee of the first row of the third chunk, quoted.
        cells = lines[2 * chunk_rows].split(",")
        cells[1] = f'"{cells[1]}"'
        lines[2 * chunk_rows] = ",".join(cells)
        quoted = SPLIT_HEADER + "\n" + "".join(lines)
        summaries = []
        for number, text in enumerate([plain, plain.replace("\n", "\r\n"), quoted]):
            path = tmp_path / f"log{number}.csv"
            path.write_text(text, encoding="utf-8", newline="")
            summaries.append(metrics.summarize_log(path))
        assert summaries[0] == summaries[1] == summaries[2]
        assert summaries[0].records == 3 * chunk_rows + 1

    def test_plain_chunks_are_split_until_the_first_other(self, monkeypatch):
        """At three rows a chunk: the first two chunks are plain, the third
        holds a quoted cell, so it and every later chunk go through
        csv.reader (whose columns are tuples), plain or not."""
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", 3)
        rng = random.Random(37)
        lines = [plain_line(rng, number) for number in range(12)]
        lines[7] = odd_line(rng, 7, "quoted")
        text = SPLIT_HEADER + "\n" + "".join(lines)
        handle = io.StringIO(text, newline="")
        width = len(next(csv.reader(handle)))
        chunks = list(metrics._body_columns(handle, width))
        assert [type(columns) for columns in chunks] == [list] * 4
        assert [type(columns[0]) for columns in chunks] == [list, list, tuple, tuple]
        rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
        assert [list(row) for columns in chunks for row in zip(*columns)] == rows
