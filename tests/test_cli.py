import copy
import csv
import dataclasses
import json
import math
import random
from importlib import resources
from pathlib import Path

import pytest

from agilesim import cli, core, fcm, metrics, simulation
from agilesim.cli import main
from conftest import make_scenario


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def corpus_path(name):
    return str(resources.files("agilesim.data").joinpath(name))


def bundled_doc(name):
    return json.loads(resources.files("agilesim.data").joinpath(name).read_text("utf-8"))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSimulateCommand:
    def test_unknown_preset_exits_2(self, capsys):
        assert main(["simulate", "--preset", "S-X", "--out", "/tmp/never"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_csv_contract(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--preset",
                "S-I",
                "--seed",
                "7",
                "--repetitions",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        utility = read_csv(tmp_path / "utility.csv")
        assert utility[0] == ["day", "run", "allocator", "cumulative_utility"]
        # 2 runs x 100 days
        assert len(utility) == 1 + 2 * 100
        allocation_rows = read_csv(tmp_path / "allocation.csv")
        assert allocation_rows[0] == ["agent", "category", "share", "allocator"]
        shares = [float(row[2]) for row in allocation_rows[1:]]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        queues = read_csv(tmp_path / "queues.csv")
        assert queues[0] == [
            "day",
            "agent",
            "pending_workload",
            "congestion",
            "allocator",
        ]
        summary = read_csv(tmp_path / "summary.csv")
        assert summary[0] == [
            "scenario",
            "allocator",
            "repetitions",
            "mean_utility",
            "std_utility",
            "mean_completed",
            "mean_delay_pct",
        ]
        assert summary[1][0] == "S-I"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--preset", "S-I", "--seed", "7", "--repetitions", "2"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_fcm_coupled_run_independent_of_earlier_runs(self, tmp_path):
        # The bundled mood map is cached per process, so its last-step
        # memo outlives a run.
        def simulate(preset, out):
            scenario = tmp_path / f"{preset}.json"
            core.save_scenario(
                dataclasses.replace(
                    core.preset(preset), mood_mode=core.MoodMode.fcm_coupled()
                ),
                scenario,
            )
            argv = ["simulate", "--scenario", str(scenario), "--compare",
                    "--repetitions", "2", "--out", str(out)]
            assert main(argv) == 0
            return tree_bytes(out)

        fcm.bundled_map.cache_clear()
        alone = simulate("S-M", tmp_path / "alone")
        fcm.bundled_map.cache_clear()
        simulate("M-C", tmp_path / "first")
        assert simulate("S-M", tmp_path / "after") == alone

    def test_compare_directional_summary(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--preset",
                "S-M",
                "--seed",
                "3",
                "--repetitions",
                "2",
                "--compare",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = {row[1]: row for row in read_csv(tmp_path / "summary.csv")[1:]}
        assert set(summary) == {"SMART", "AWR"}
        assert float(summary["SMART"][3]) > float(summary["AWR"][3])
        out = capsys.readouterr().out
        assert "SMART" in out and "AWR" in out

    def test_compare_shares_arrival_schedule(self, tmp_path):
        # identical seeds means both allocators see identical arrivals;
        # day-0 cumulative utilities may differ, but run/day axes align
        code = main(
            [
                "simulate",
                "--preset",
                "S-I",
                "--seed",
                "5",
                "--repetitions",
                "1",
                "--compare",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "utility.csv")[1:]
        smart_days = [(row[0], row[1]) for row in rows if row[2] == "SMART"]
        awr_days = [(row[0], row[1]) for row in rows if row[2] == "AWR"]
        assert smart_days == awr_days

    def test_scenario_file_input(self, tmp_path):
        config = core.with_overrides(core.preset("S-I"), repetitions=1)
        path = tmp_path / "scenario.json"
        core.save_scenario(config, path)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_budget_overspent_by_rounding_runs(self, tmp_path, capsys):
        # 17 tasks of effort 0.1 overspend a 1.7 budget by an ulp; T2 must
        # then be accepted 0 times, not -1, or the queue sizes go negative.
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 1.7),),
            tasks=(("T1", 10.0, 10.0, 0.1, 2000), ("T2", 5.0, 5.0, 0.5, 300)),
            horizon_days=10,
        )
        path = tmp_path / "scenario.json"
        core.save_scenario(config, path)
        argv = ["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "out" / "queues.csv").exists()

    def test_invalid_scenario_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}", encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_missing_scenario_file_exits_2(self, tmp_path):
        assert (
            main(["simulate", "--scenario", "/nope.json", "--out", str(tmp_path)]) == 2
        )

    def test_scenario_directory_exits_2(self, tmp_path, capsys):
        argv = ["simulate", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Is a directory" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "source", [["--preset", "S-M"], ["--all-presets"]], ids=["preset", "all-presets"]
    )
    def test_invalid_override_exits_2(self, source, tmp_path, capsys):
        argv = ["simulate", *source, "--repetitions", "0", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "repetitions: must satisfy repetitions >= 1" in capsys.readouterr().err

    def test_compare_with_allocator_exits_2(self, tmp_path, capsys):
        # --compare runs both allocators, so an --allocator would be ignored.
        out = tmp_path / "out"
        argv = ["simulate", "--preset", "S-M", "--compare", "--allocator", "AWR",
                "--repetitions", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --allocator: cannot be combined with --compare")
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # Seed -1 would replay seed 0's quality draws.
        argv = ["simulate", "--preset", "S-M", "--repetitions", "1", "--seed=-1",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed: must satisfy seed >= 0 (got -1)")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field,value,path",
        [
            ("mood_mode", "constant:abc", "mood_mode: invalid value"),
            ("team", {"HCA": {"competence": 0.9, "max_effort": 20}}, "team.HCA.count"),
            ("psi", float("nan"), "psi: must be finite"),
            ("psi", True, "psi: invalid value True"),
            ("tasks", [{"type_id": "T1", "priority": 1, "utility": 1,
                        "effort": float("nan"), "count": 5}],
             "tasks[0].effort: must be finite"),
            ("tasks", [{"type_id": "T1", "priority": 1, "utility": 1,
                        "effort": 1, "count": 0}],
             "tasks: total task count must be > 0"),
            # Before the caps this ran until killed: every day each task's
            # fractional effort was added to a queue one task at a time.
            ("tasks", [{"type_id": "T1", "priority": 1, "utility": 1,
                        "effort": 2.5, "count": 10**20}],
             "tasks[0].count: must be <= 1500000 (got 100000000000000000000)"),
            ("horizon_days", 10**7, "horizon_days: must be <= 10000 (got 10000000)"),
            ("repetitions", 10**6, "repetitions: must be <= 1000 (got 1000000)"),
            ("team", {"HCA": {"count": 10**6, "competence": 0.9, "max_effort": 20}},
             "team.HCA.count: must be <= 16000 (got 1000000)"),
        ],
        ids=["mood-mode", "team-count", "psi-nan", "psi-bool", "effort-nan",
             "no-tasks", "task-count-cap", "horizon-cap", "repetitions-cap",
             "team-count-cap"],
    )
    def test_malformed_scenario_field_exits_2(self, field, value, path, tmp_path, capsys):
        doc = core.scenario_to_document(core.preset("S-M"))
        doc[field] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert path in err
        assert "Traceback" not in err


QUEUE_HEADER = ["day", "agent", "pending_workload", "congestion", "allocator"]


def reference_queue_rows(firsts):
    """The rows ``queues.csv`` holds, one ``core.write_csv`` row per agent
    per day."""
    return (
        [day, agent, first.pending_workload[agent][day], first.congestion[day], allocator]
        for allocator, first in firsts.items()
        for day in range(len(first.arrivals))
        for agent in first.categories
    )


def per_seed_runs(repeated):
    """Each repetition's own ``RunResult``: its outcome's fields on a copy
    of its trajectory."""
    return [
        dataclasses.replace(
            copy.deepcopy(repeated.trajectories[outcome.trajectory]),
            seed=outcome.seed,
            utility=list(outcome.utility),
            high_quality_count=outcome.high_quality_count,
        )
        for outcome in repeated.outcomes
    ]


def reference_utility_rows(results):
    """The rows of ``utility.csv``, each repetition's cumulative utility
    summed day by day from 0.0."""
    rows = []
    for allocator, repeated in results.items():
        for run_index, result in enumerate(per_seed_runs(repeated)):
            total = 0.0
            for day, value in enumerate(result.utility):
                total += value
                rows.append([day, run_index, allocator, total])
    return rows


def reference_allocation_rows(results):
    """The rows of ``allocation.csv`` with ``allocation_proportion``
    computed for every repetition's own run, as if no two shared a
    trajectory."""
    rows = []
    for allocator, repeated in results.items():
        share_sums = {}
        counted = 0
        runs = per_seed_runs(repeated)
        for result in runs:
            try:
                report = metrics.allocation_proportion(result.assigned_effort)
            except metrics.MetricsError:
                continue
            counted += 1
            for agent, share in report.items():
                share_sums[agent] = share_sums.get(agent, 0.0) + share
        if counted:
            first = runs[0]
            for agent in first.categories:
                share = share_sums.get(agent, 0.0) / counted
                rows.append([agent, first.categories[agent], share, allocator])
    return rows


def queue_run(agent_ids, pending_workload, congestion):
    return simulation.RunResult(
        scenario="hand-built",
        allocator=core.Allocator.SMART,
        seed=0,
        categories=dict.fromkeys(agent_ids, "HCA"),
        assigned_effort={},
        pending_workload=pending_workload,
        congestion=congestion,
        arrivals=[0] * len(congestion),
        completions=[],
        utility=[],
    )


class TestSimulationWriters:
    """The day-at-a-time ``queues.csv`` and the once-per-trajectory
    allocation shares against the row-by-row writers they replace."""

    AWKWARD = (math.nan, math.inf, -math.inf, 1e16, 5e-324, 0.1 + 0.2)
    IDS = ["dev-000", "a,b", 'say "hi"', "line\nbreak", "", "naïve"]

    def test_queue_writer_matches_write_csv(self, tmp_path):
        rng = random.Random(16)
        zero, negative_zero = 0.0, -0.0
        written = []
        for case in range(20):
            horizon = rng.randint(1, 30)
            firsts = {}
            for allocator in ("smart", 'x,"y"'):
                ids = rng.sample(self.IDS, rng.randint(1, len(self.IDS)))
                pending = {}
                for agent in ids:
                    # Idle stretches hold one float object; a -0.0 object
                    # next to a 0.0 object must keep its sign.
                    column = [zero, negative_zero, zero, negative_zero]
                    while len(column) < horizon:
                        value = rng.choice(
                            self.AWKWARD + (zero, negative_zero, rng.uniform(-1e3, 1e3))
                        )
                        column += [value] * rng.randint(1, 4)
                    pending[agent] = column[:horizon]
                congestion = [rng.choice(self.AWKWARD + (zero,)) for _ in range(horizon)]
                firsts[allocator] = queue_run(ids, pending, congestion)
            cli._write_queues(tmp_path / "got.csv", firsts)
            core.write_csv(tmp_path / "want.csv", QUEUE_HEADER, reference_queue_rows(firsts))
            got = (tmp_path / "got.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes(), case
            written.append(got)
        for text in (b",-0.0,", b",0.0,", b",nan,", b"\n0,,", b'"line\nbreak"', b'"x,""y"""'):
            assert any(text in got for got in written), text

    def test_queue_writer_without_agents(self, tmp_path):
        firsts = {"awr": queue_run([], {}, [0.0, 1.5])}
        cli._write_queues(tmp_path / "queues.csv", firsts)
        header = b"day,agent,pending_workload,congestion,allocator\n"
        assert (tmp_path / "queues.csv").read_bytes() == header

    @pytest.mark.parametrize(
        "mood_mode, calls",
        [(core.MoodMode.constant(0.7), 1), (core.MoodMode.fcm_coupled(), 3)],
        ids=["constant", "fcm-coupled"],
    )
    def test_allocation_shares_equal_every_run_recomputed(
        self, monkeypatch, tmp_path, mood_mode, calls
    ):
        config = make_scenario(
            categories=((core.Category.HCA, 2, 0.9, 3.5), (core.Category.MIA, 3, 0.45, 2.25)),
            tasks=(("T1", 4.0, 6.3, 1.75, 40), ("T2", 2.0, 0.1, 0.8, 55)),
            horizon_days=20,
            repetitions=3,
            seed=4,
            mood_mode=mood_mode,
        )
        results = {
            a.value: simulation.run_repeated(core.with_overrides(config, allocator=a))
            for a in core.Allocator
        }
        counted = []
        real = metrics.allocation_proportion

        def counted_proportion(assigned_effort):
            counted.append(assigned_effort)
            return real(assigned_effort)

        monkeypatch.setattr(metrics, "allocation_proportion", counted_proportion)
        cli._write_simulation_outputs(tmp_path, results)
        assert len(counted) == calls * len(results)
        monkeypatch.setattr(metrics, "allocation_proportion", real)
        core.write_csv(
            tmp_path / "want.csv",
            ["agent", "category", "share", "allocator"],
            reference_allocation_rows(results),
        )
        got = (tmp_path / "allocation.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert len(got.splitlines()) == 1 + 5 * len(results)

    @pytest.mark.parametrize(
        "mood_mode", [core.MoodMode.constant(), core.MoodMode.fcm_coupled()],
        ids=["constant", "fcm-coupled"],
    )
    def test_utility_rows_equal_the_running_total(self, tmp_path, mood_mode):
        configs = [
            dataclasses.replace(
                core.with_overrides(core.preset(name), seed=seed, repetitions=3),
                mood_mode=mood_mode,
            )
            for name, seed in (("S-I", 0), ("M-M", 5), ("L-C", 987_654_321))
        ]
        # One repetition per allocator, and a one-day horizon.
        single = dataclasses.replace(
            core.with_overrides(core.preset("M-C"), seed=2, repetitions=1),
            mood_mode=mood_mode,
        )
        one_day = make_scenario(
            categories=((core.Category.HCA, 2, 0.9, 6.0), (core.Category.MIA, 2, 0.45, 3.0)),
            tasks=(("T1", 4.0, 6.3, 2.5, 7), ("T2", 2.0, 0.1, 1.5, 3)),
            horizon_days=1,
            repetitions=3,
            seed=11,
            mood_mode=mood_mode,
        )
        # No task fits a day's effort: SMART accepts none, and AWR's
        # assignee completes nothing on day 0.
        idle = make_scenario(
            categories=((core.Category.HCA, 2, 0.9, 3.5), (core.Category.MIA, 3, 0.45, 2.25)),
            tasks=(("T1", 4.0, 6.3, 4.75, 40), ("T2", 2.0, 0.1, 3.8, 55)),
            horizon_days=20,
            repetitions=3,
            seed=4,
            mood_mode=mood_mode,
        )
        for config in [*configs, single, one_day, idle]:
            results = {
                a.value: simulation.run_repeated(core.with_overrides(config, allocator=a))
                for a in core.Allocator
            }
            cli._write_simulation_outputs(tmp_path, results)
            header = ["day", "run", "allocator", "cumulative_utility"]
            want = reference_utility_rows(results)
            core.write_csv(tmp_path / "want.csv", header, want)
            got = (tmp_path / "utility.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes(), config.name
            assert len(want) == 2 * config.repetitions * config.horizon_days
        awr = results[core.Allocator.AWR.value].outcomes
        assert all(o.utility[0] == 0.0 < sum(o.utility) for o in awr)

    def test_allocation_without_allocations(self, tmp_path):
        config = make_scenario(tasks=(), horizon_days=5, repetitions=3)
        results = {"smart": simulation.run_repeated(config)}
        cli._write_simulation_outputs(tmp_path, results)
        assert reference_allocation_rows(results) == []
        assert read_csv(tmp_path / "allocation.csv") == [
            ["agent", "category", "share", "allocator"]
        ]


class TestFcmCommand:
    def test_bundled_map_reaches_reported_equilibrium(self, tmp_path, capsys):
        code = main(
            [
                "fcm",
                "--map",
                "michael_scenario1",
                "--initial",
                "0.5,0,0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed-point" in out
        assert "0.920579" in out or "0.920580" in out
        rows = read_csv(tmp_path / "trajectory.csv")
        assert rows[0] == ["iteration", "Mood", "Progress", "Quality"]

    def test_trajectory_csv(self, tmp_path):
        argv = ["fcm", "--map", "michael_scenario1", "--initial", "0.5,0,0",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = (tmp_path / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,Mood,Progress,Quality"
        assert lines[1].startswith("0,0.5,")
        cmap = fcm.bundled_map("michael_scenario1")
        states = fcm.run(cmap, fcm.StateVector(values=(0.5, 0.0, 0.0))).states
        assert len(lines) == len(states) + 1

    def test_scenario_two_from_equilibrium(self, tmp_path, capsys):
        code = main(
            [
                "fcm",
                "--map",
                "grace_scenario2",
                "--initial",
                "0.994717128,0.987922232,0.92272765,1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed-point" in out
        assert "0.960145" in out and "0.917715" in out

    def test_trivalent_outputs_discrete(self, tmp_path):
        code = main(
            [
                "fcm",
                "--map",
                "michael_scenario1",
                "--initial",
                "0.5,0,0",
                "--transform",
                "trivalent",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "trajectory.csv")[2:]  # skip header + initial
        values = {float(cell) for row in rows for cell in row[1:]}
        assert values <= {-1.0, 0.0, 1.0}

    def test_max_iter_zero_exits_2(self, tmp_path, capsys):
        argv = ["fcm", "--map", "michael_scenario1", "--initial", "0.5,0,0",
                "--max-iter", "0", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "max_iter must be >= 1" in capsys.readouterr().err

    def test_max_iter_above_cap_exits_2(self, tmp_path, capsys):
        argv = ["fcm", "--map", "michael_scenario1", "--initial", "0.5,0,0",
                "--max-iter", str(fcm.MAX_ITERATIONS_CAP + 1), "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"max_iter must be <= {fcm.MAX_ITERATIONS_CAP}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "fcm",
                "--map",
                "michael_scenario1",
                "--initial",
                "0.5,0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "3-node" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tol", "nan"], "tol must be > 0"),
            (["--tol", "inf"], "error: tol must be > 0 and finite (got inf)"),
            (["--c", "nan"], "c: sigmoid steepness must be in (0, inf)"),
            (["--c", "-1"], "c: sigmoid steepness must be in (0, inf)"),
            (["--initial", "nan,0,0"], "--initial: expected 3 finite"),
        ],
        ids=["tol-nan", "tol-inf", "c-nan", "c-negative", "initial-nan"],
    )
    def test_bad_flag_exits_2(self, flags, message, tmp_path, capsys):
        argv = ["fcm", "--map", "michael_scenario1", "--initial", "0.5,0,0",
                *flags, "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"labels": 5}, "labels: invalid value 5"),
            ({"weights": [[0, 0.4], 3]}, "weights: invalid value"),
            ({"weights": [[0, float("nan")], [0.2, 0]]}, "weights[0][1]: nan outside"),
            ({"c": float("nan")}, "c: sigmoid steepness must be in (0, inf) (got nan)"),
            ({"labels": None}, "labels: required key missing"),
            ({"labels": [], "weights": []}, "labels: must name at least one node"),
            ({"labels": ["a", "a"]}, "labels[1]: duplicate label 'a'"),
            ({"labels": ["a", ""]}, "labels[1]: must be non-empty"),
            ({"labels": ["a", "iteration"]}, "labels[1]: 'iteration' is reserved"),
        ],
        ids=["labels-number", "weights-row-number", "weight-nan", "c-nan", "labels-null",
             "labels-empty", "labels-repeated", "label-blank", "label-iteration"],
    )
    def test_malformed_map_file_exits_2(self, change, message, tmp_path, capsys):
        doc = {"labels": ["a", "b"], "weights": [[0, 0.4], [0.2, 0]], **change}
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["fcm", "--map", str(path), "--initial", "1,0", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: invalid map file {path}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "change,initial",
        [({}, "-1e300,0,0"), ({"c": 1e300}, "-0.5,0,0")],
        ids=["initial-1e300", "c-1e300"],
    )
    def test_sigmoid_overflow_stays_finite(self, change, initial, tmp_path, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({**bundled_doc("michael_scenario1.json"), **change}),
                        encoding="utf-8")
        argv = ["fcm", "--map", str(path), f"--initial={initial}", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = read_csv(tmp_path / "trajectory.csv")[1:]
        assert len(rows) >= 2
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])

    def test_map_file_not_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "map.json"
        path.write_bytes(b"\xff\xfe not text")
        argv = ["fcm", "--map", str(path), "--initial", "1,0", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"invalid map file {path}" in capsys.readouterr().err

    def test_map_file_path(self, tmp_path):
        doc = {
            "labels": ["a", "b"],
            "weights": [[0, 0.4], [0.2, 0]],
            "transform": "sigmoid",
            "c": 5,
        }
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert (
            main(["fcm", "--map", str(path), "--initial", "1,0", "--out", str(tmp_path)])
            == 0
        )


class TestGoalnetCommand:
    def test_bundled_corpus(self, tmp_path, capsys):
        code = main(
            [
                "goalnet",
                "--stories",
                corpus_path("stories.json"),
                "--goals",
                corpus_path("goals.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "valid goal net" in out
        assert "4 levels" in out
        assert (tmp_path / "net.json").exists()
        dot = (tmp_path / "net.dot").read_text(encoding="utf-8")
        assert dot.startswith("digraph")

    def test_missing_story_file_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "goalnet",
                "--stories",
                "/nope.json",
                "--goals",
                corpus_path("goals.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2


DROP = object()


def edit(doc, location, value):
    """Replace the value at ``location`` (a key path) or, for DROP, delete it."""
    *parents, last = location
    for key in parents:
        doc = doc[key]
    if value is DROP:
        del doc[last]
    else:
        doc[last] = value


class TestMalformedCorpus:
    @pytest.mark.parametrize(
        "name,location,value,message",
        [
            ("goals.json", ["goals"], 5, "goals: invalid value 5"),
            ("goals.json", ["assignment"], [1], "assignment: expected an object"),
            ("stories.json", ["stories", 0, "text"], DROP,
             "stories[0].text: required key missing"),
            ("stories.json", ["stories", 2, "id"], DROP,
             "stories[2].id: required key missing"),
            ("stories.json", ["stories", 1], "As a user, I want to x",
             "stories[1]: expected an object"),
            ("stories.json", ["stories", 1, "environment"], [1],
             "stories[1].environment: invalid value [1]"),
            ("stories.json", ["stories", 0, "text"], "I want to x",
             "stories[0].text: expected role clause"),
            ("stories.json", ["stories", 2, "id"], "1.1",
             "stories[2]: story ids must be unique (repeated id '1.1')"),
            ("stories.json", ["stories", 1, "cut_across"], "false",
             "stories[1].cut_across: invalid value 'false'"),
            ("goals.json", ["goals", 1], "Improved user interface",
             "goals[1]: duplicate goal label 'Improved user interface'"),
        ],
        ids=["goals-number", "assignment-list", "story-without-text",
             "story-without-id", "story-string", "environment-number",
             "story-text", "duplicate-id", "cut-across-string", "duplicate-goal"],
    )
    def test_exits_2_with_path(self, name, location, value, message, tmp_path, capsys):
        paths = {}
        for doc_name in ("stories.json", "goals.json"):
            doc = bundled_doc(doc_name)
            if doc_name == name:
                edit(doc, location, value)
            paths[doc_name] = tmp_path / doc_name
            paths[doc_name].write_text(json.dumps(doc), encoding="utf-8")
        argv = ["goalnet", "--stories", str(paths["stories.json"]),
                "--goals", str(paths["goals.json"]), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        kind = name.split(".")[0]
        assert f"error: invalid {kind} file {paths[name]}: {message}" in err
        assert "Traceback" not in err

    def test_unknown_goal_label_names_its_assignment(self, tmp_path, capsys):
        goals = tmp_path / "goals.json"
        goals.write_text(
            json.dumps({"goals": ["G"], "assignment": {"1": "H"}}), encoding="utf-8"
        )
        argv = ["goalnet", "--stories", corpus_path("stories.json"), "--goals",
                str(goals), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: assignment.1: unknown goal 'H'\n"

    def test_unknown_parent_of_a_later_story(self, tmp_path, capsys):
        # "1.1" names a parent listed after it, whose own parent is unknown.
        stories = tmp_path / "stories.json"
        stories.write_text(json.dumps({"stories": [
            {"id": "1.1", "parent": "1", "text": "As a user, I want to y"},
            {"id": "1", "parent": "0", "text": "As a user, I want to x"},
        ]}), encoding="utf-8")
        argv = ["goalnet", "--stories", str(stories), "--goals",
                corpus_path("goals.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "story '1' references unknown parent '0'" in err
        assert "Traceback" not in err


LOG_HEADER = (
    "task_id,assignee_id,sprint_index,difficulty,priority,confidence,"
    "estimated_days,actual_days,quality,collaborators,mood_begin,mood_end"
)


class TestIngestCommand:
    def write_log(self, tmp_path, rows):
        path = tmp_path / "log.csv"
        path.write_text("\n".join([LOG_HEADER, *rows]) + "\n", encoding="utf-8")
        return path

    def test_all_on_time_high_quality(self, tmp_path, capsys):
        rows = [
            f"t{i},s{i % 3},1,{4 + i % 5},5,7,4,3,8,1,3,4" for i in range(9)
        ]
        path = self.write_log(tmp_path, rows)
        code = main(
            [
                "ingest",
                "--log",
                str(path),
                "--correlate",
                "competence:productivity",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        table = read_csv(tmp_path / "competence.csv")
        assert table[0] == ["agent", "competence"]
        assert all(float(row[1]) > 0.5 for row in table[1:])
        assert (tmp_path / "productivity.csv").exists()
        correlations = read_csv(tmp_path / "correlations.csv")
        assert correlations[0] == ["x", "y", "r", "n"]
        out = capsys.readouterr().out
        assert "delay percentage: 0.0000" in out

    def test_empty_log_exits_2(self, tmp_path, capsys):
        path = self.write_log(tmp_path, [])
        code = main(["ingest", "--log", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "no records" in capsys.readouterr().err

    def test_schema_errors_exit_2(self, tmp_path, capsys):
        path = self.write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,12,1,3,4"])
        code = main(["ingest", "--log", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "quality" in capsys.readouterr().err

    def test_blank_assignee_exits_2(self, tmp_path, capsys):
        path = self.write_log(
            tmp_path, ["t1,s1,1,8,5,7,3,3,8,1,3,4", "t2, ,1,8,5,7,3,3,8,1,3,4"]
        )
        out = tmp_path / "out"
        assert main(["ingest", "--log", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "row 3: assignee_id is blank" in err
        assert "Traceback" not in err
        assert not (out / "competence.csv").exists()

    def test_non_utf8_log_exits_2(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_bytes(LOG_HEADER.encode() + b"\nt1,s\xff1,1,8,5,7,3,3,8,1,3,4\n")
        assert main(["ingest", "--log", str(path), "--out", str(tmp_path)]) == 2
        assert f"invalid log file {path}" in capsys.readouterr().err

    def test_grouped_metrics_equal_whole_log_scans(self, tmp_path, capsys):
        # Interleaved agents, several sprints, fractional difficulties
        # (so the order of each float sum matters) and the optional
        # pass-through columns.
        rng = random.Random(11)
        rows = []
        for i in range(240):
            rows.append(
                ",".join(
                    [
                        f"t{i}",
                        f"a{rng.randrange(7)}",
                        str(rng.randrange(1, 5)),
                        f"{rng.uniform(0, 10):.3f}",
                        "5",
                        "7",
                        f"{rng.uniform(0, 6):.2f}",
                        f"{rng.uniform(0, 6):.2f}",
                        f"{rng.uniform(0, 10):.1f}",
                        str(rng.randrange(1, 4)),
                        "3",
                        "4",
                        f"{rng.uniform(0, 20):.1f}",
                        "",
                        "31",
                    ]
                )
            )
        path = tmp_path / "log.csv"
        path.write_text(
            "\n".join([LOG_HEADER + ",workload,final_score,team_score", *rows])
            + "\n",
            encoding="utf-8",
        )
        assert main(["ingest", "--log", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        records = metrics.ingest_log(path)
        agents = sorted({r.assignee_id for r in records})
        assert read_csv(tmp_path / "competence.csv")[1:] == [
            [agent, repr(metrics.competence(records, agent))] for agent in agents
        ]
        assert read_csv(tmp_path / "productivity.csv")[1:] == [
            [agent, repr(metrics.technical_productivity(records, agent))]
            for agent in agents
        ]

    def test_unknown_correlation_series(self, tmp_path, capsys):
        path = self.write_log(tmp_path, ["t1,s1,1,8,5,7,3,3,8,1,3,4"])
        code = main(
            [
                "ingest",
                "--log",
                str(path),
                "--correlate",
                "competence:charisma",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2


class TestParserContract:
    def test_usage_error_exits_2(self):
        assert main(["simulate"]) == 2

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        argv = ["fcm", "--map", "michael_scenario1", "--initial", "0.5,0,0",
                "--out", str(blocker / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_default_out_from_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("AGILESIM_OUT", str(tmp_path / "from-env"))
        code = main(
            ["fcm", "--map", "michael_scenario1", "--initial", "0.5,0,0"]
        )
        assert code == 0
        assert (tmp_path / "from-env" / "trajectory.csv").exists()


class TestAllPresets:
    def test_all_presets_writes_per_preset_directories(self, tmp_path):
        code = main(
            [
                "simulate",
                "--all-presets",
                "--repetitions",
                "1",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        names = {p.name for p in tmp_path.iterdir() if p.is_dir()}
        assert names == set(core.PRESET_NAMES)
        for name in names:
            assert (tmp_path / name / "summary.csv").exists()
