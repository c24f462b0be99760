import json
from dataclasses import replace
from importlib import resources

import pytest

from agilesim import goalnet
from agilesim.goalnet import (
    GoalNet,
    GoalNode,
    Transition,
    build_goal_net,
    parse_story,
    render_story,
    validate_net,
)


def corpus_path(name):
    return str(resources.files("agilesim.data").joinpath(name))


def load_corpus():
    stories = goalnet.load_stories(corpus_path("stories.json"))
    goals, assignment, root_label = goalnet.load_goals(corpus_path("goals.json"))
    return stories, goals, assignment, root_label


class TestParseStory:
    def test_full_template(self):
        story = parse_story(
            "As a visitor, I want to Easily search goods on mobile phones "
            "so that I can find my favorite goods with no digital divide"
        )
        assert story.role == "visitor"
        assert story.goal == "Easily search goods on mobile phones"
        assert story.benefit == "I can find my favorite goods with no digital divide"

    def test_benefit_optional(self):
        story = parse_story("As a customer, I want to pay via mobile phones")
        assert story.role == "customer"
        assert story.goal == "pay via mobile phones"
        assert story.benefit is None

    def test_missing_role_clause(self):
        with pytest.raises(goalnet.StoryParseError) as err:
            parse_story("I want to pay")
        assert err.value.position == 0

    def test_missing_want_clause(self):
        with pytest.raises(goalnet.StoryParseError) as err:
            parse_story("As a customer, please add paying")
        assert err.value.position > 0

    def test_keywords_case_insensitive(self):
        story = parse_story("as an Engineer, I WANT TO ship so that we learn")
        assert story.role == "Engineer"
        assert story.goal == "ship"
        assert story.benefit == "we learn"

    def test_whitespace_normalized(self):
        story = parse_story("  As a   visitor,  I want    to browse   quickly ")
        assert story.goal == "browse quickly"

    def test_render_parse_identity(self):
        cases = [
            goalnet.UserStory(id="1", role="visitor", goal="search goods"),
            goalnet.UserStory(
                id="2", role="engineer", goal="deploy fast", benefit="we sleep"
            ),
            goalnet.UserStory(
                id="3", role="VIP customer", goal="pay cash on delivery",
                benefit="I can pay later",
            ),
        ]
        for story in cases:
            parsed = parse_story(render_story(story), story_id=story.id)
            assert parsed.role == story.role
            assert parsed.goal == story.goal
            assert parsed.benefit == story.benefit


class TestBuildGoalNet:
    def test_minimal_net(self):
        story = parse_story("As a user, I want to log in", story_id="1")
        net = build_goal_net([story], ["Account access"], {"1": "Account access"})
        assert len(net.nodes) == 3
        assert net.levels() == 3
        assert [t.kind for t in net.transitions] == [goalnet.SEQUENCE]
        transition = net.transitions[0]
        assert transition.inputs == ("story-1",)
        assert transition.outputs == ("hl-1",)
        assert validate_net(net) == []

    def test_sibling_substories_fan_out(self):
        stories = [
            parse_story("As a user, I want to search", story_id="1"),
            parse_story(
                "As a user, I want to search by voice", story_id="1.1", parent="1"
            ),
            parse_story(
                "As a user, I want to search by category", story_id="1.2", parent="1"
            ),
        ]
        net = build_goal_net(stories, ["Search"], {"1": "Search"})
        kinds = [t.kind for t in net.transitions]
        assert goalnet.CONCURRENCY in kinds
        assert goalnet.SYNCHRONIZATION in kinds
        concurrency = next(
            t for t in net.transitions if t.kind == goalnet.CONCURRENCY
        )
        assert set(concurrency.outputs) == {"story-1.1", "story-1.2"}
        sync = next(
            t for t in net.transitions if t.kind == goalnet.SYNCHRONIZATION
        )
        assert set(sync.inputs) == {"story-1.1", "story-1.2"}
        assert sync.outputs == ("story-1",)
        assert validate_net(net) == []

    def test_corpus_builds_four_levels(self):
        stories, goals, assignment, root_label = load_corpus()
        assert len(stories) == 9
        net = build_goal_net(stories, goals, assignment, root_label=root_label)
        assert net.levels() == 4
        assert validate_net(net) == []
        improved_ui = next(
            nid
            for nid, node in net.nodes.items()
            if node.label == "Improved user interface"
        )
        labels_under = {net.nodes[kid].label for kid in net.children[improved_ui]}
        assert labels_under == {
            "Easily search goods on mobile phones",
            "Easily sort the search results",
        }
        # middle-level siblings are chained in order
        chain = [
            t
            for t in net.transitions
            if t.kind == goalnet.SEQUENCE
            and t.inputs == ("story-1",)
            and t.outputs == ("story-2",)
        ]
        assert len(chain) == 1

    def test_corpus_cards(self):
        stories, goals, assignment, root_label = load_corpus()
        net = build_goal_net(stories, goals, assignment, root_label=root_label)
        assert {card.goal_id for card in net.cards} == {
            "story-1.1",
            "story-1.2",
            "story-2.1",
            "story-2.2",
            "story-3.1",
            "story-3.2",
        }
        voice = next(c for c in net.cards if c.goal_id == "story-1.1")
        assert len(voice.tasks) == 4
        assert any(name == "Device" for name, _ in voice.environment_variables)

    def test_unassigned_story(self):
        story = parse_story("As a user, I want to log in", story_id="1")
        with pytest.raises(goalnet.GoalNetError, match="unassigned"):
            build_goal_net([story], ["Account access"], {})

    def test_unknown_goal_label(self):
        story = parse_story("As a user, I want to log in", story_id="1")
        with pytest.raises(
            goalnet.GoalNetError,
            match=r"^assignment\.1: unknown goal 'Something else'$",
        ):
            build_goal_net([story], ["Account access"], {"1": "Something else"})

    @pytest.mark.parametrize(
        "key, message",
        [("99", "assignment.99: names no"), ("1.1", "assignment.1.1: names no")],
        ids=["unknown", "sub-story"],
    )
    def test_assignment_names_a_top_level_story(self, key, message):
        stories = [
            parse_story("As a user, I want to x", story_id="1"),
            goalnet.UserStory(id="1.1", role="user", goal="y", parent="1"),
        ]
        with pytest.raises(goalnet.GoalNetError) as err:
            build_goal_net(stories, ["G"], {"1": "G", key: "G"})
        assert err.value.errors[0].startswith(message)

    def test_parent_must_be_prefix(self):
        stories = [
            parse_story("As a user, I want to x", story_id="1"),
            goalnet.UserStory(id="2.1", role="user", goal="y", parent="1"),
        ]
        with pytest.raises(goalnet.GoalNetError, match="prefix"):
            build_goal_net(stories, ["G"], {"1": "G"})

    def test_unknown_parent(self):
        stories = [goalnet.UserStory(id="4.1", role="user", goal="y", parent="4")]
        with pytest.raises(goalnet.GoalNetError, match="unknown parent"):
            build_goal_net(stories, ["G"], {})

    def test_unknown_grandparent_listed_after_its_child(self):
        # The child's parent is known; the parent's own parent is not.
        stories = [
            goalnet.UserStory(id="1.1", role="user", goal="y", parent="1"),
            goalnet.UserStory(id="1", role="user", goal="x", parent="0"),
        ]
        with pytest.raises(goalnet.GoalNetError) as err:
            build_goal_net(stories, ["G"], {"1": "G"})
        assert err.value.errors == ["story '1' references unknown parent '0'"]

    def test_cyclic_parents_fail_the_prefix_rule(self):
        stories = [
            goalnet.UserStory(id="1", role="user", goal="x", parent="1.1"),
            goalnet.UserStory(id="1.1", role="user", goal="y", parent="1"),
        ]
        with pytest.raises(goalnet.GoalNetError) as err:
            build_goal_net(stories, ["G"], {"1": "G"})
        assert err.value.errors == [
            "story '1': parent '1.1' is not a proper prefix of the id"
        ]

    def test_single_substory_is_one_sequence(self):
        stories = [
            parse_story("As a user, I want to search", story_id="1"),
            parse_story(
                "As a user, I want to search by voice",
                story_id="1.1",
                parent="1",
                tasks=("record", "transcribe"),
            ),
        ]
        net = build_goal_net(stories, ["Search"], {"1": "Search"})
        assert net.transitions == (
            Transition(
                id="tr-001",
                kind=goalnet.SEQUENCE,
                inputs=("story-1.1",),
                outputs=("story-1",),
                tasks=("record", "transcribe"),
            ),
        )
        assert validate_net(net) == []

    def test_explicit_transitions_override(self):
        stories = [
            parse_story("As a user, I want to search", story_id="1"),
            parse_story(
                "As a user, I want to search by voice", story_id="1.1", parent="1"
            ),
            parse_story(
                "As a user, I want to search by category", story_id="1.2", parent="1"
            ),
        ]
        override = [
            Transition(
                id="tr-x",
                kind=goalnet.SEQUENCE,
                inputs=("story-1.1",),
                outputs=("story-1.2",),
            )
        ]
        net = build_goal_net(
            stories, ["Search"], {"1": "Search"}, explicit_transitions=override
        )
        assert net.transitions == tuple(override)

    def test_empty_net_round_trips(self):
        net = build_goal_net([], [], {})
        assert list(net.nodes) == ["root"]
        assert validate_net(net) == []
        assert goalnet.from_document(goalnet.to_document(net)) == net


class TestValidateNet:
    def build_reference(self):
        stories, goals, assignment, root_label = load_corpus()
        return build_goal_net(stories, goals, assignment, root_label=root_label)

    def test_reference_net_valid(self):
        assert validate_net(self.build_reference()) == []

    def test_orphan_unreachable(self):
        net = self.build_reference()
        nodes = dict(net.nodes)
        nodes["ghost"] = GoalNode(id="ghost", label="Ghost", kind=goalnet.ATOMIC, level=2)
        broken = replace(net, nodes=nodes)
        assert any("unreachable" in v for v in validate_net(broken))

    def detach_fan_out_child(self):
        """The reference net with one output of a concurrency transition
        removed from its parent's children."""
        net = self.build_reference()
        fan_out = next(t for t in net.transitions if t.kind == goalnet.CONCURRENCY)
        kid = fan_out.outputs[0]
        children = {
            parent: tuple(k for k in kids if k != kid)
            for parent, kids in net.children.items()
        }
        return replace(net, children=children), kid

    def test_reachable_through_transition_alone(self):
        net, kid = self.detach_fan_out_child()
        assert all(kid not in kids for kids in net.children.values())
        assert validate_net(net) == []

    def test_transition_from_orphan_does_not_reach(self):
        net, kid = self.detach_fan_out_child()
        nodes = dict(net.nodes)
        nodes["ghost"] = GoalNode(id="ghost", label="Ghost", kind=goalnet.ATOMIC, level=2)
        transitions = tuple(t for t in net.transitions if kid not in t.outputs) + (
            Transition(
                id="tr-ghost", kind=goalnet.SEQUENCE, inputs=("ghost",), outputs=(kid,)
            ),
        )
        violations = validate_net(
            replace(net, nodes=nodes, transitions=transitions)
        )
        assert f"node {kid}: unreachable from root" in violations
        assert "node ghost: unreachable from root" in violations

    def test_sync_arity(self):
        net = self.build_reference()
        bad = replace(
            net,
            transitions=net.transitions
            + (
                Transition(
                    id="tr-bad",
                    kind=goalnet.SYNCHRONIZATION,
                    inputs=("story-1",),
                    outputs=("hl-1",),
                ),
            ),
        )
        assert any(">= 2 inputs" in v for v in validate_net(bad))

    def test_level_skip_flagged(self):
        story = parse_story("As a user, I want to log in", story_id="1")
        net = build_goal_net([story], ["G"], {"1": "G"})
        nodes = dict(net.nodes)
        nodes["story-1"] = replace(nodes["story-1"], level=3)
        assert any("skips" in v for v in validate_net(replace(net, nodes=nodes)))

    def test_cut_across_may_attach_deep(self):
        story = parse_story("As a user, I want to log in", story_id="1")
        net = build_goal_net([story], ["G"], {"1": "G"})
        nodes = dict(net.nodes)
        nodes["bugs"] = GoalNode(
            id="bugs", label="Bugs tracked", kind=goalnet.ATOMIC, level=3,
            cut_across=True,
        )
        children = dict(net.children)
        children["hl-1"] = children["hl-1"] + ("bugs",)
        children["bugs"] = ()
        patched = replace(net, nodes=nodes, children=children)
        assert validate_net(patched) == []
        # but a regular node there would skip a level
        nodes["bugs"] = replace(nodes["bugs"], cut_across=False)
        assert any("skips" in v for v in validate_net(replace(patched, nodes=nodes)))

    def test_composite_without_children(self):
        net = self.build_reference()
        nodes = dict(net.nodes)
        nodes["story-1.1"] = replace(nodes["story-1.1"], kind=goalnet.COMPOSITE)
        assert any(
            "composite node without children" in v
            for v in validate_net(replace(net, nodes=nodes))
        )

    def test_card_goal_must_resolve(self):
        net = self.build_reference()
        bad_cards = net.cards + (
            goalnet.GetCard(goal_id="story-9.9", environment_variables=(), tasks=("x",)),
        )
        assert any(
            "goal not in the net" in v
            for v in validate_net(replace(net, cards=bad_cards))
        )


class TestDocumentsAndExport:
    def build_reference(self):
        stories, goals, assignment, root_label = load_corpus()
        return build_goal_net(stories, goals, assignment, root_label=root_label)

    def test_round_trip_lossless(self):
        net = self.build_reference()
        assert goalnet.from_document(goalnet.to_document(net)) == net

    def test_file_round_trip(self, tmp_path):
        net = self.build_reference()
        path = tmp_path / "net.json"
        goalnet.save_net(net, path)
        assert goalnet.load_net(path) == net

    def test_missing_node_reference(self):
        net = self.build_reference()
        doc = goalnet.to_document(net)
        doc["hierarchy"]["root"] = doc["hierarchy"]["root"] + ["nowhere"]
        with pytest.raises(goalnet.GoalNetError, match="unknown node"):
            goalnet.from_document(doc)

    @pytest.mark.parametrize("level", [1.5, True], ids=["fraction", "bool"])
    def test_non_integral_level_rejected(self, level):
        doc = goalnet.to_document(self.build_reference())
        doc["nodes"][0]["level"] = level
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.from_document(doc)
        assert err.value.errors == [f"nodes[0].level: invalid value {level!r}"]

    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_cut_across_must_be_boolean(self, value):
        # bool("false") is True: only JSON true or false may load.
        doc = goalnet.to_document(self.build_reference())
        doc["nodes"][0]["cut_across"] = value
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.from_document(doc)
        assert err.value.errors == [f"nodes[0].cut_across: invalid value {value!r}"]

    def test_story_cut_across_must_be_boolean(self, tmp_path):
        with open(corpus_path("stories.json"), encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["stories"][1]["cut_across"] = "false"
        path = tmp_path / "stories.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.load_stories(path)
        assert err.value.errors == [
            f"invalid stories file {path}: stories[1].cut_across: invalid value 'false'"
        ]
        doc["stories"][1]["cut_across"] = False
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert not goalnet.load_stories(path)[1].cut_across

    def test_story_id_must_be_string(self, tmp_path):
        with open(corpus_path("stories.json"), encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["stories"][0]["id"] = 1
        path = tmp_path / "stories.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.load_stories(path)
        assert err.value.errors == [
            f"invalid stories file {path}: stories[0].id: invalid value 1"
        ]

    def test_goal_assignment_must_be_string(self, tmp_path):
        with open(corpus_path("goals.json"), encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["assignment"]["2"] = ["Improved user interface"]
        path = tmp_path / "goals.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.load_goals(path)
        assert err.value.errors == [
            f"invalid goals file {path}: assignment.2: invalid value "
            "['Improved user interface']"
        ]

    @pytest.mark.parametrize("value", [5, ["root"], True])
    def test_root_must_be_string(self, value):
        # str(5) would name a node "5" if the net had one.
        doc = goalnet.to_document(self.build_reference())
        doc["nodes"][0]["id"] = "5"
        doc["root"] = value
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.from_document(doc)
        assert err.value.errors == [f"root: invalid value {value!r}"]

    def test_many_goal_labels_with_one_repeat(self, tmp_path):
        # First positions in a dict: one pass, not a search per label.
        goals = [f"goal {i}" for i in range(100_000)] + ["goal 7"]
        path = tmp_path / "goals.json"
        path.write_text(json.dumps({"goals": goals, "assignment": {}}), encoding="utf-8")
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.load_goals(path)
        assert err.value.errors == [
            f"invalid goals file {path}: goals[100000]: duplicate goal label 'goal 7'"
        ]

    def test_dot_export_styles(self):
        net = self.build_reference()
        dot = goalnet.export_dot(net)
        assert dot.startswith("digraph goalnet {")
        assert "shape=box" in dot  # composite nodes
        assert "shape=ellipse" in dot  # atomic nodes
        assert '"tr-001"' in dot
        for kind in (goalnet.SEQUENCE, goalnet.CONCURRENCY, goalnet.SYNCHRONIZATION):
            assert kind in dot

    def test_plaintext_story_file(self, tmp_path):
        path = tmp_path / "stories.txt"
        path.write_text(
            "1: As a user, I want to search goods\n"
            "1.1: As a user, I want to search by voice\n"
            "# comment line\n"
            "As a guest, I want to browse\n",
            encoding="utf-8",
        )
        stories = goalnet.load_stories(path)
        assert [s.id for s in stories] == ["1", "1.1", "2"]
        assert stories[1].parent == "1"

    def test_duplicate_story_ids_rejected(self, tmp_path):
        path = tmp_path / "stories.txt"
        path.write_text(
            "1: As a user, I want to search goods\n"
            "1: As a guest, I want to browse\n",
            encoding="utf-8",
        )
        with pytest.raises(goalnet.GoalNetError, match="story ids must be unique"):
            goalnet.load_stories(path)

    def test_story_file_names_every_id_and_parent_problem(self, tmp_path):
        path = tmp_path / "stories.txt"
        path.write_text(
            "1: As a user, I want to search goods\n"
            "1: As a guest, I want to browse\n"
            "7.1: As a user, I want to pay\n"
            "8.1: As a user, I want to ship\n",
            encoding="utf-8",
        )
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.load_stories(path)
        assert err.value.errors == [
            f"invalid stories file {path}: line 2: story ids must be unique "
            "(repeated id '1')",
            f"invalid stories file {path}: line 3: story '7.1' references "
            "unknown parent '7'",
            f"invalid stories file {path}: line 4: story '8.1' references "
            "unknown parent '8'",
        ]

    def test_json_corpus_names_each_story_entry(self, tmp_path):
        path = tmp_path / "stories.json"
        path.write_text(json.dumps({"stories": [
            {"id": "2.1", "text": "As a user, I want to y"},
            {"id": "1", "text": "As a user, I want to x"},
            {"id": "1.1", "parent": "2", "text": "As a user, I want to z"},
        ]}), encoding="utf-8")
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.load_stories(path)
        assert err.value.errors == [
            f"invalid stories file {path}: stories[0]: story '2.1' references "
            "unknown parent '2'",
            f"invalid stories file {path}: stories[2]: story '1.1' references "
            "unknown parent '2'",
        ]

    def test_build_names_every_problem_without_places(self):
        stories = [
            goalnet.UserStory(id="1", role="user", goal="x"),
            goalnet.UserStory(id="1", role="user", goal="y"),
            goalnet.UserStory(id="2.1", role="user", goal="z", parent="1"),
        ]
        with pytest.raises(goalnet.GoalNetError) as err:
            build_goal_net(stories, ["G"], {"1": "G"})
        assert err.value.errors == [
            "story ids must be unique (repeated id '1')",
            "story '2.1': parent '1' is not a proper prefix of the id",
        ]

    @pytest.mark.parametrize("name", ["stories.json", "goals.json"])
    def test_byte_order_mark_accepted(self, name, tmp_path):
        path = tmp_path / name
        bundled = resources.files("agilesim.data").joinpath(name).read_bytes()
        path.write_bytes(b"\xef\xbb\xbf" + bundled)
        load = goalnet.load_stories if name == "stories.json" else goalnet.load_goals
        assert load(path) == load(corpus_path(name))

    def test_story_file_bad_line(self, tmp_path):
        path = tmp_path / "stories.txt"
        path.write_text("1: not a story at all\n", encoding="utf-8")
        with pytest.raises(goalnet.GoalNetError, match="line 1:"):
            goalnet.load_stories(path)

    def test_story_file_names_every_bad_line(self, tmp_path):
        path = tmp_path / "stories.txt"
        path.write_text(
            "# corpus\n"
            # A form feed is whitespace, not a line break.
            "As a user, I want to search goods\x0c fast\n"
            "this is not a story\n"
            "\n"
            "1.1: As a user, please add paying\n",
            encoding="utf-8",
        )
        with pytest.raises(goalnet.GoalNetError) as err:
            goalnet.load_stories(path)
        assert err.value.errors == [
            f"invalid stories file {path}: line 3: expected role clause "
            "'As a <role>,' (at position 0)",
            f"invalid stories file {path}: line 5: expected 'I want to <goal>' "
            "after the role (at position 10)",
        ]
