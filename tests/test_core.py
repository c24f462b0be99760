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


class TestValidate:
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
            "task_mix[0].effort",
            "task_mix[0].priority",
            "task_mix[0].utility",
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


class TestTeamConfig:
    def test_agent_ids_follow_roster_order(self):
        agents = core.preset("S-I").team.build_agents()
        assert [a.agent_id for a in agents[:3]] == ["dev-000", "dev-001", "dev-002"]
        assert agents[0].category is core.Category.HCA
        assert agents[-1].category is core.Category.HIA
        assert len(agents) == 20

    def test_competence_for_per_type_override(self):
        agent = core.AgentState(
            agent_id="a",
            category=core.Category.MCA,
            competence=0.7,
            mood=1.0,
            max_effort=10.0,
            competence_by_type={"T9": 0.2},
        )
        assert agent.competence_for("T9") == 0.2
        assert agent.competence_for("T1") == 0.7
