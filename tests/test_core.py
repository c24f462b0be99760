import csv
import json
import math
import random

import pytest

from agilesim import core


class TestPresets:
    def test_sm_composition(self):
        config = core.preset("S-M")
        rows = {
            (s.category, s.count, s.competence, s.max_effort)
            for s in config.team.categories
        }
        assert rows == {
            (core.Category.HCA, 5, 0.9, 20.0),
            (core.Category.MCA, 5, 0.7, 15.0),
            (core.Category.MIA, 5, 0.3, 15.0),
            (core.Category.HIA, 5, 0.1, 10.0),
        }
        pairs = {(spec.utility, spec.effort) for spec, _ in config.task_mix}
        assert pairs == {(10, 10), (8, 8), (5, 5), (3, 3), (1, 1)}
        assert all(count == 100 for _, count in config.task_mix)
        assert config.horizon_days == 100
        assert config.repetitions == 10

    def test_mc_composition(self):
        config = core.preset("M-C")
        counts = {s.category: s.count for s in config.team.categories}
        assert counts == {
            core.Category.HCA: 22,
            core.Category.MCA: 13,
            core.Category.MIA: 13,
            core.Category.HIA: 2,
        }
        assert config.total_tasks() == 1500
        assert all(count == 300 for _, count in config.task_mix)

    def test_lm_reconstruction(self):
        config = core.preset("L-M")
        counts = {s.category: s.count for s in config.team.categories}
        assert counts == {
            core.Category.HCA: 40,
            core.Category.MCA: 40,
            core.Category.MIA: 40,
            core.Category.HIA: 40,
        }
        assert config.total_tasks() == 5000

    def test_lc_mirrors_li(self):
        lc = {s.category: s.count for s in core.preset("L-C").team.categories}
        li = {s.category: s.count for s in core.preset("L-I").team.categories}
        assert lc[core.Category.HCA] == li[core.Category.HIA] == 70
        assert lc[core.Category.HIA] == li[core.Category.HCA] == 10

    def test_unknown_preset(self):
        with pytest.raises(core.UnknownPresetError, match="unknown preset"):
            core.preset("S-X")

    def test_head_count_families(self):
        sizes = {"S": 20, "M": 50, "L": 160}
        for name in core.PRESET_NAMES:
            family = name.split("-")[0]
            assert core.preset(name).team.head_count() == sizes[family]

    def test_all_presets_validate(self):
        for name in core.PRESET_NAMES:
            config = core.preset(name)
            assert core.validate(config) is config

    def test_effort_equals_utility(self):
        for name in core.PRESET_NAMES:
            config = core.preset(name)
            total_u = sum(spec.utility * count for spec, count in config.task_mix)
            total_e = sum(spec.effort * count for spec, count in config.task_mix)
            assert total_u == total_e

    def test_preset_deterministic(self):
        for name in core.PRESET_NAMES:
            assert core.preset(name) == core.preset(name)


def sized(heads=(1,), counts=(1,), horizon_days=1, repetitions=1):
    """A scenario of the given head counts (HCA, MCA, ...), task counts
    (one type each), horizon and repetitions."""
    categories = tuple(
        core.CategorySpec(c, n, 0.9, 10.0) for c, n in zip(core.Category, heads)
    )
    return core.ScenarioConfig(
        name="sized",
        team=core.TeamConfig(categories),
        task_mix=tuple(
            (core.TaskTypeSpec(f"T{i}", 1, 1, 1), n) for i, n in enumerate(counts)
        ),
        horizon_days=horizon_days,
        repetitions=repetitions,
    )


def halves(n):
    return (n // 2, n - n // 2)


# Each size cap: its value, a scenario of that size, and the paths of the
# errors one above it.
SIZE_CAPS = {
    "horizon": (core.MAX_HORIZON_DAYS, lambda n: sized(horizon_days=n), ["horizon_days"]),
    "repetitions": (core.MAX_REPETITIONS, lambda n: sized(repetitions=n), ["repetitions"]),
    "team-count": (
        core.MAX_HEAD_COUNT, lambda n: sized(heads=(n,)), ["team", "team.HCA.count"]
    ),
    "head-count": (core.MAX_HEAD_COUNT, lambda n: sized(heads=halves(n)), ["team"]),
    "task-count": (
        core.MAX_TASKS, lambda n: sized(counts=(n,)), ["tasks", "tasks[0].count"]
    ),
    "total-tasks": (core.MAX_TASKS, lambda n: sized(counts=halves(n)), ["tasks"]),
    "task-types": (core.MAX_TASK_TYPES, lambda n: sized(counts=(1,) * n), ["tasks"]),
    # A full team for one day more than the agent-days allow.
    "agent-days": (
        core.MAX_AGENT_DAYS // core.MAX_HEAD_COUNT,
        lambda n: sized(heads=(core.MAX_HEAD_COUNT,), horizon_days=n),
        ["horizon_days"],
    ),
    # Full agent-days repeated once more than the repeated agent-days allow.
    "repeated-agent-days": (
        core.MAX_REPEATED_AGENT_DAYS // core.MAX_AGENT_DAYS,
        lambda n: sized(
            heads=(core.MAX_HEAD_COUNT,),
            horizon_days=core.MAX_AGENT_DAYS // core.MAX_HEAD_COUNT,
            repetitions=n,
        ),
        ["repetitions"],
    ),
}


class TestValidate:
    @pytest.mark.parametrize("cap, scenario, paths", SIZE_CAPS.values(), ids=SIZE_CAPS)
    def test_size_caps(self, cap, scenario, paths):
        assert core.validate(scenario(cap))
        with pytest.raises(core.ScenarioValidationError) as err:
            core.validate(scenario(cap + 1))
        assert sorted(e.split(":")[0] for e in err.value.errors) == paths
        assert all(" <= " in e for e in err.value.errors)

    def test_horizon_boundary(self):
        config = core.preset("S-I")
        bad = core.ScenarioConfig(
            name=config.name,
            team=config.team,
            task_mix=config.task_mix,
            horizon_days=0,
        )
        with pytest.raises(core.ScenarioValidationError) as err:
            core.validate(bad)
        assert any("horizon_days" in e for e in err.value.errors)

    def test_competence_boundary(self):
        team = core.TeamConfig(
            categories=(core.CategorySpec(core.Category.HCA, 1, 1.3, 10.0),)
        )
        bad = core.ScenarioConfig(
            name="bad", team=team, task_mix=core.preset("S-I").task_mix
        )
        with pytest.raises(core.ScenarioValidationError) as err:
            core.validate(bad)
        assert any("competence" in e for e in err.value.errors)

    def test_all_violations_listed(self):
        team = core.TeamConfig(
            categories=(core.CategorySpec(core.Category.HCA, 1, 2.0, -1.0),)
        )
        bad = core.ScenarioConfig(
            name="bad",
            team=team,
            task_mix=(
                (core.TaskTypeSpec("T1", priority=-1, utility=-2, effort=0), 1),
            ),
            horizon_days=0,
            repetitions=0,
            psi=-1,
        )
        with pytest.raises(core.ScenarioValidationError) as err:
            core.validate(bad)
        joined = "\n".join(err.value.errors)
        for field in (
            "horizon_days",
            "repetitions",
            "psi",
            "competence",
            "max_effort",
            "priority",
            "utility",
            "effort",
        ):
            assert field in joined
        assert len(err.value.errors) >= 8

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_numbers_rejected(self, bad):
        team = core.TeamConfig(
            categories=(core.CategorySpec(core.Category.HCA, 1, bad, bad),)
        )
        config = core.ScenarioConfig(
            name="bad",
            team=team,
            task_mix=((core.TaskTypeSpec("T1", bad, bad, bad), 1),),
            psi=bad,
            mood_mode=core.MoodMode.constant(bad),
        )
        with pytest.raises(core.ScenarioValidationError) as err:
            core.validate(config)
        assert sorted(e.split(":")[0] for e in err.value.errors) == [
            "mood_mode.value",
            "psi",
            "tasks[0].effort",
            "tasks[0].priority",
            "tasks[0].utility",
            "team.HCA.competence",
            "team.HCA.max_effort",
        ]
        assert all("must be finite" in e for e in err.value.errors)

    def test_duplicate_type_id(self):
        spec = core.TaskTypeSpec("T1", 1, 1, 1)
        config = core.ScenarioConfig(
            name="dup",
            team=core.preset("S-I").team,
            task_mix=((spec, 1), (spec, 2)),
        )
        with pytest.raises(core.ScenarioValidationError, match="duplicate"):
            core.validate(config)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        config = core.preset("S-C")
        path = tmp_path / "scenario.json"
        core.save_scenario(config, path)
        assert core.load_scenario(path) == config

    def test_byte_order_mark_accepted(self, tmp_path):
        config = core.preset("S-M")
        path = tmp_path / "scenario.json"
        core.save_scenario(config, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert core.load_scenario(path) == config

    @pytest.mark.parametrize(
        "key,entry,message",
        [
            ("XYZ", {"count": 1, "competence": 0.5, "max_effort": 1.0},
             "team.XYZ: unknown category"),
            ("HCA", 3, "team.HCA: expected an object"),
        ],
        ids=["unknown-category", "entry-not-object"],
    )
    def test_bad_team_entry(self, key, entry, message):
        doc = core.scenario_to_document(core.preset("S-I"))
        doc["team"][key] = entry
        with pytest.raises(core.ScenarioValidationError) as err:
            core.scenario_from_document(doc)
        assert err.value.errors == [message]

    def test_document_keys(self):
        doc = core.scenario_to_document(core.preset("S-I"))
        assert set(doc) == {
            "name",
            "team",
            "tasks",
            "horizon_days",
            "repetitions",
            "seed",
            "psi",
            "allocator",
            "mood_mode",
        }

    def test_mood_mode_forms(self):
        doc = core.scenario_to_document(core.preset("S-I"))
        doc["mood_mode"] = "fcm-coupled"
        assert core.scenario_from_document(doc).mood_mode == core.MoodMode.fcm_coupled()
        doc["mood_mode"] = "constant:0.25"
        assert core.scenario_from_document(doc).mood_mode == core.MoodMode.constant(0.25)
        doc["mood_mode"] = "constant"
        assert core.scenario_from_document(doc).mood_mode == core.MoodMode.constant(1.0)
        doc["mood_mode"] = "sometimes"
        with pytest.raises(core.ScenarioValidationError):
            core.scenario_from_document(doc)

    def test_missing_keys_reported(self):
        with pytest.raises(core.ScenarioValidationError) as err:
            core.scenario_from_document({"name": "x"})
        joined = " ".join(err.value.errors)
        for key in ("team", "tasks", "horizon_days", "repetitions", "seed"):
            assert key in joined

    def test_unknown_allocator(self):
        doc = core.scenario_to_document(core.preset("S-I"))
        doc["allocator"] = "GREEDY"
        with pytest.raises(core.ScenarioValidationError, match="allocator"):
            core.scenario_from_document(doc)

    def test_negative_seed_rejected(self):
        # random.Random seeds from abs(n): seed -1 would replay seed 0.
        doc = core.scenario_to_document(core.preset("S-I"))
        doc["seed"] = -1
        with pytest.raises(core.ScenarioValidationError) as err:
            core.scenario_from_document(doc)
        assert err.value.errors == ["seed: must satisfy seed >= 0 (got -1)"]

    @staticmethod
    def assert_rejected(path, value):
        """Set the field at ``path`` of the S-I document to ``value`` and
        expect exactly one error naming it."""
        doc = core.scenario_to_document(core.preset("S-I"))
        entry = doc
        *parents, key = path.replace("[0]", ".0").split(".")
        for part in parents:
            entry = entry[int(part) if part.isdigit() else part]
        entry[key] = value
        with pytest.raises(core.ScenarioValidationError) as err:
            core.scenario_from_document(doc)
        assert err.value.errors == [f"{path}: invalid value {value!r}"]

    @pytest.mark.parametrize(
        "path,value",
        [
            ("seed", 1.5),
            ("seed", True),
            ("horizon_days", True),
            ("repetitions", 2.5),
            ("tasks[0].count", 2.7),
            ("team.HCA.count", False),
            ("team.HCA.count", "3"),
        ],
        ids=[
            "seed-fraction", "seed-bool", "horizon-bool", "repetitions-fraction",
            "task-count-fraction", "team-count-bool", "team-count-string",
        ],
    )
    def test_integer_field_rejects_bool_and_fraction(self, path, value):
        self.assert_rejected(path, value)

    @pytest.mark.parametrize(
        "path,value",
        [
            ("psi", True),
            ("team.HCA.competence", True),
            ("team.HCA.max_effort", False),
            ("tasks[0].effort", "2.5"),
        ],
        ids=["psi-bool", "competence-bool", "max-effort-bool", "effort-string"],
    )
    def test_real_field_rejects_bool_and_string(self, path, value):
        # float(True) is 1.0: a boolean must not run as a number.
        self.assert_rejected(path, value)

    @pytest.mark.parametrize(
        "path,value",
        [("name", {"x": 1}), ("tasks[0].type_id", ["T", 1]), ("tasks[0].type_id", 1)],
        ids=["name-object", "type-id-list", "type-id-number"],
    )
    def test_text_field_rejects_non_string(self, path, value):
        # str({"x": 1}) is "{'x': 1}": only a JSON string may load as text.
        self.assert_rejected(path, value)

    def test_real_field_accepts_int(self):
        doc = core.scenario_to_document(core.preset("S-I"))
        doc["psi"] = 2
        config = core.scenario_from_document(doc)
        assert config.psi == 2.0 and type(config.psi) is float

    def test_integer_field_accepts_integral_float(self):
        doc = core.scenario_to_document(core.preset("S-I"))
        doc["seed"] = 3.0
        doc["tasks"][0]["count"] = 100.0
        config = core.scenario_from_document(doc)
        assert config.seed == 3 and type(config.seed) is int
        assert config.task_mix[0][1] == 100 and type(config.task_mix[0][1]) is int


# Values whose written form is easy to get wrong: the sign of a zero,
# the shortest repr of a sum, exponents at both ends of the range.
AWKWARD_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324, 0.1 + 0.2)
AWKWARD_TEXT = (
    "naïve café 日本",
    'say "hi"',
    "back\\slash",
    "tab\tbell\x07nul\x00",
    "line\nbreak\r\n",
    "a,b",
    "",
)


def random_document(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6 if depth < 3 else 4)
    if kind == 0:
        return rng.choice(AWKWARD_FLOATS + (rng.uniform(-1e6, 1e6),))
    if kind == 1:
        return rng.choice([0, -1, rng.randint(-(10**20), 10**20)])
    if kind == 2:
        return rng.choice(AWKWARD_TEXT) + chr(rng.randrange(1, 0xD800))
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4:
        return [random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        rng.choice(AWKWARD_TEXT) + str(i): random_document(rng, depth + 1)
        for i in range(rng.randint(0, 4))
    }


class TestOutputWriters:
    """``write_json`` and ``write_csv`` pin the bytes of every output
    file, so a Python whose ``json`` or ``csv`` rules change fails here."""

    def test_json_equals_dump_plus_newline(self, tmp_path):
        rng = random.Random(15)
        for case in range(300):
            doc = random_document(rng)
            core.write_json(tmp_path / "got.json", doc)
            with open(tmp_path / "want.json", "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2)
                handle.write("\n")
            got = (tmp_path / "got.json").read_bytes()
            assert got == (tmp_path / "want.json").read_bytes(), case

    def test_json_awkward_floats(self, tmp_path):
        core.write_json(tmp_path / "floats.json", list(AWKWARD_FLOATS))
        text = (tmp_path / "floats.json").read_text(encoding="utf-8")
        assert text.splitlines()[1:-1] == [
            "  -0.0,", "  0.0,", "  NaN,", "  Infinity,", "  -Infinity,",
            "  1e+16,", "  5e-324,", "  0.30000000000000004",
        ]
        assert text.endswith("]\n")

    def test_csv_float_cell_is_repr(self, tmp_path):
        path = tmp_path / "floats.csv"
        core.write_csv(path, ["i", "value"], enumerate(AWKWARD_FLOATS))
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "i,value" and lines[-1] == ""
        assert lines[1:-1] == [f"{i},{v!r}" for i, v in enumerate(AWKWARD_FLOATS)]

    def test_csv_matches_explicit_repr(self, tmp_path):
        rng = random.Random(15)
        rows = [
            [day, f"dev-{rng.randrange(100):03d}", rng.uniform(-1e3, 1e3)]
            + [rng.choice(AWKWARD_FLOATS) for _ in range(3)]
            for day in range(200)
        ]
        core.write_csv(tmp_path / "got.csv", ["day", "agent", "a", "b", "c", "d"], rows)
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["day", "agent", "a", "b", "c", "d"])
            for row in rows:
                writer.writerow(row[:2] + [repr(value) for value in row[2:]])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_csv_quotes_only_what_needs_it(self, tmp_path):
        path = tmp_path / "text.csv"
        row = ["a,b", 'say "hi"', "line\nbreak", "naïve", "plain"]
        core.write_csv(path, ["p", "q", "r", "s", "t"], [row])
        assert path.read_bytes() == (
            'p,q,r,s,t\n"a,b","say ""hi""","line\nbreak",naïve,plain\n'
        ).encode("utf-8")
        with open(path, encoding="utf-8", newline="") as handle:
            assert list(csv.reader(handle)) == [["p", "q", "r", "s", "t"], row]


class TestTeamConfig:
    def test_agent_ids_follow_roster_order(self):
        agents = core.preset("S-I").team.build_agents()
        assert [a.agent_id for a in agents[:3]] == ["dev-000", "dev-001", "dev-002"]
        assert agents[0].category is core.Category.HCA
        assert agents[-1].category is core.Category.HIA
        assert len(agents) == 20
