"""Acceptance suite: each test covers one release criterion at its
stated tolerance and prints an explicit pass line (run with ``-s`` to
see them). The preset sweep behind the allocator-comparison criteria is
computed once per session by the ``preset_sweep`` fixture."""

import json
import random
from importlib import resources

import pytest

from agilesim import core, fcm, goalnet, metrics
from agilesim.cli import main


def _passed(name: str) -> None:
    print(f"ACCEPTANCE PASS - {name}")


def _reference_series():
    payload = resources.files("agilesim.data").joinpath(
        "reference_trajectories.json"
    ).read_text(encoding="utf-8")
    return json.loads(payload)["series"]


def _replay(name: str, reference: dict) -> None:
    """Compare a stepped trajectory against every printed value."""
    cmap = fcm.bundled_map(reference["map"])
    values = tuple(reference["initial"])
    rows = reference["iterations"]
    for iteration, expected in enumerate(rows):
        if iteration > 0:
            values = fcm.step(cmap, values)
        for node, value in enumerate(expected):
            assert abs(values[node] - value) <= 1e-5, (
                f"{name}: iteration {iteration} node {node}: "
                f"{values[node]} vs printed {value}"
            )


def test_criterion_1_fcm_golden_replay_scenario_one():
    """Scenario-one maps replay their printed 20-iteration tables to
    within 1e-5 and settle on the reported equilibria."""
    series = _reference_series()
    _replay("michael_scenario1", series["michael_scenario1"])
    _replay("grace_scenario1", series["grace_scenario1"])

    michael = fcm.run(
        fcm.bundled_map("michael_scenario1"),
        fcm.StateVector(values=(0.5, 0.0, 0.0)),
        tol=1e-6,
    )
    assert michael.terminal == fcm.FIXED_POINT
    assert michael.final.iteration <= 14 + 2
    assert michael.final.values == pytest.approx(
        (0.920580, 0.846519, 0.786979), abs=1e-5
    )

    grace = fcm.run(
        fcm.bundled_map("grace_scenario1"),
        fcm.StateVector(values=(0.5, 0.0, 0.0)),
        tol=1e-6,
    )
    assert grace.terminal == fcm.FIXED_POINT
    assert grace.final.iteration <= 7 + 2
    assert grace.final.values == pytest.approx(
        (0.994717, 0.987922, 0.922728), abs=1e-5
    )
    _passed("FCM golden replay, scenario I")


def test_criterion_2_fcm_golden_replay_scenario_two():
    """Scenario-two maps replay their printed tables, reach the reported
    equilibria, and stay convergent when the difficulty input varies."""
    series = _reference_series()
    _replay("michael_scenario2", series["michael_scenario2"])
    _replay("grace_scenario2", series["grace_scenario2"])

    equilibria = {
        "michael_scenario2": (0.843095, 0.700016, 0.754279, 0.5),
        "grace_scenario2": (0.960145, 0.97148, 0.917715, 0.5),
    }
    for name, expected in equilibria.items():
        reference = series[name]
        traj = fcm.run(
            fcm.bundled_map(name),
            fcm.StateVector(values=tuple(reference["initial"])),
            tol=1e-6,
        )
        assert traj.terminal == fcm.FIXED_POINT
        assert traj.final.values == pytest.approx(expected, abs=1e-5)

        # difficulty-sensitivity reruns: 0 and 0.5 replace the top value
        base = tuple(reference["initial"][:3])
        for difficulty in (0.0, 0.5):
            rerun = fcm.run(
                fcm.bundled_map(name),
                fcm.StateVector(values=base + (difficulty,)),
                tol=1e-6,
            )
            assert rerun.terminal == fcm.FIXED_POINT
            for state in rerun.states[1:]:
                assert state.values[3] == pytest.approx(0.5, abs=1e-12)
    _passed("FCM golden replay, scenario II + difficulty sensitivity")


def test_criterion_3_smart_exceeds_awr_on_every_preset(preset_sweep):
    """Mean utility over 10 seeded repetitions: the acceptance planner
    strictly beats accept-when-requested on all nine presets, with the
    full sweep finishing inside its 60 second budget."""
    margins = {}
    for name in core.PRESET_NAMES:
        smart = preset_sweep.mean_utility[(name, "SMART")]
        awr = preset_sweep.mean_utility[(name, "AWR")]
        margins[name] = smart - awr
        assert smart > awr, f"{name}: SMART {smart} vs AWR {awr}"
    assert preset_sweep.elapsed_seconds < 60.0, (
        f"sweep took {preset_sweep.elapsed_seconds:.1f}s"
    )
    worst = min(margins, key=margins.get)
    _passed(
        "SMART > AWR on all 9 presets "
        f"(smallest margin {margins[worst]:.1f} at {worst}; "
        f"sweep {preset_sweep.elapsed_seconds:.1f}s)"
    )


def test_criterion_4_queue_boundedness_monitor(preset_sweep):
    """Pending workloads stay bounded under the acceptance planner, and
    the top agent's backlog under accept-when-requested dwarfs it."""
    for name in core.PRESET_NAMES:
        allowance = preset_sweep.max_daily_arrival_workload[name]
        for run_maxima in preset_sweep.half_maxima[(name, "SMART")]:
            for agent, (first_half, second_half) in run_maxima.items():
                assert second_half <= first_half + allowance, (
                    f"{name} {agent}: second-half max {second_half} vs "
                    f"first-half max {first_half} + {allowance}"
                )

    exceeded = []
    for name in core.PRESET_NAMES:
        awr_peaks = preset_sweep.top_agent_peak[(name, "AWR")]
        smart_peaks = preset_sweep.top_agent_peak[(name, "SMART")]
        awr_peak = sum(awr_peaks) / len(awr_peaks)
        smart_peak = sum(smart_peaks) / len(smart_peaks)
        if awr_peak > smart_peak:
            exceeded.append(name)
    assert len(exceeded) >= 8, f"AWR backlog exceeded SMART only in {exceeded}"
    for name in ("S-I", "M-I", "L-I"):
        assert name in exceeded
    _passed(
        "queue-boundedness monitor "
        f"(AWR top-agent backlog larger in {len(exceeded)}/9 presets)"
    )


def test_criterion_5_acceptance_plan_property_suite():
    """1,000 random planning instances satisfy the effort and offer
    constraints exactly, agree with a straight-line re-trace on 100, and
    never accept a non-positively scored type."""
    from test_allocation import agent, random_instance, retrace
    from agilesim import allocation

    rng = random.Random(2024)
    for index in range(1000):
        planner, offers, economics, psi = random_instance(rng)
        plan = allocation.smart_plan(planner, offers, economics, psi)
        spent = sum(plan.accepted[tid] * economics[tid].effort for tid in offers)
        assert spent <= planner.max_effort + 1e-9
        assert plan.leftover_effort == pytest.approx(planner.max_effort - spent)
        for tid in offers:
            assert 0 <= plan.accepted[tid] <= offers[tid]
            if economics[tid].availability_score(psi) <= 0:
                assert plan.accepted[tid] == 0
        if index < 100:
            rows = [
                (
                    tid,
                    economics[tid].availability_score(psi),
                    economics[tid].effort,
                    offers[tid],
                )
                for tid in offers
            ]
            expected, leftover = retrace(planner.max_effort, rows)
            assert plan.accepted == expected
            assert plan.leftover_effort == pytest.approx(leftover)
    _passed("acceptance-plan property suite (1000 fuzz + 100 oracle instances)")


def test_criterion_6_competence_metric():
    """Evidence-based competence: exact empty-history value, two hand-
    evaluated fixtures at 1e-12, and monotone over 1,000 random sets."""
    assert metrics.competence([], "s1") == 0.5

    def record(difficulty, estimated, actual, quality, sprint=1):
        return metrics.SprintRecord(
            task_id="t",
            assignee_id="s1",
            sprint_index=sprint,
            difficulty=difficulty,
            priority=5.0,
            confidence=5.0,
            estimated_days=estimated,
            actual_days=actual,
            quality=quality,
            collaborators=1,
            mood_begin=3.0,
            mood_end=3.0,
        )

    single = [record(8.0, 3, 3, 7)]
    assert abs(metrics.competence(single, "s1") - 0.9) <= 1e-12
    pair = single + [record(4.0, 3, 5, 8)]
    assert abs(metrics.competence(pair, "s1") - 9 / 14) <= 1e-12

    rng = random.Random(31)
    for _ in range(1000):
        records = [
            record(
                rng.uniform(0.1, 10),
                rng.uniform(1, 5),
                rng.uniform(1, 6),
                rng.uniform(0, 10),
                sprint=rng.randint(1, 5),
            )
            for _ in range(rng.randint(0, 8))
        ]
        base = metrics.competence(records, "s1")
        assert 0.0 < base < 1.0
        up = metrics.competence(
            records + [record(rng.uniform(0.1, 10), 4, 2, 9)], "s1"
        )
        down = metrics.competence(
            records + [record(rng.uniform(0.1, 10), 2, 4, 1)], "s1"
        )
        assert up > base
        assert down < base
    _passed("competence metric (exact fixtures + 1000 monotonicity sets)")


def test_criterion_7_simulate_determinism(tmp_path):
    """Identical flags and seed produce byte-identical CSV outputs."""
    args = [
        "simulate",
        "--preset",
        "S-I",
        "--seed",
        "7",
        "--repetitions",
        "3",
        "--compare",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.csv"))
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.csv"))
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    _passed("simulate determinism (byte-identical CSVs)")


def test_criterion_8_goal_net_corpus():
    """The bundled story corpus parses completely, builds a four-level
    net that validates, and survives a lossless document round-trip."""
    stories = goalnet.load_stories(
        str(resources.files("agilesim.data").joinpath("stories.json"))
    )
    assert len(stories) == 9
    assert sum(1 for s in stories if s.parent is None) >= 3
    goals, assignment, root_label = goalnet.load_goals(
        str(resources.files("agilesim.data").joinpath("goals.json"))
    )
    net = goalnet.build_goal_net(stories, goals, assignment, root_label=root_label)
    assert net.levels() == 4
    assert goalnet.validate_net(net) == []
    assert goalnet.from_document(goalnet.to_document(net)) == net
    _passed("goal net corpus (parse, 4 levels, validation, round-trip)")
